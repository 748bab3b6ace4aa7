//! # hgw-gateway — the simulated home gateway (device under test)
//!
//! A behavioral model of the CPE devices the paper studies: a NAPT engine
//! with traffic-pattern-dependent binding timeouts ([`nat`]), a policy
//! vocabulary spanning the observed behavior space ([`policy`]), a
//! capacity-limited forwarding plane ([`engine`]) and the full device node
//! with DHCP client/server, ICMP translation and a DNS proxy
//! ([`gateway`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod gateway;
pub mod nat;
pub mod policy;
mod runs;

pub use engine::{ForwardingEngine, FwdDir};
pub use gateway::{Gateway, GatewayStats, LAN_PORT, WAN_PORT};
pub use nat::{Binding, InboundVerdict, NatProto, NatStats, NatTable, OutboundVerdict};
pub use policy::{
    DnsProxyPolicy, DnsTcpMode, EndpointScope, ForwardingModel, GatewayPolicy, IcmpErrorKind,
    IcmpKindSet, IcmpPolicy, PortAssignment, TrafficPattern, UnknownProtoPolicy,
};
