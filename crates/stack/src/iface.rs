//! Interfaces and routing for simulated hosts.
//!
//! Links in the testbed are point-to-point (each VLAN of Figure 1 connects
//! exactly one gateway port to one host port), so a route resolves to an
//! egress port; there is no ARP layer.

use std::net::Ipv4Addr;

use hgw_core::{Cleared, PortId};

/// Converts a prefix length to a netmask.
pub fn prefix_to_mask(prefix: u8) -> u32 {
    debug_assert!(prefix <= 32);
    if prefix == 0 {
        0
    } else {
        u32::MAX << (32 - prefix)
    }
}

/// True if `addr` is inside `net/prefix`.
pub fn in_subnet(addr: Ipv4Addr, net: Ipv4Addr, prefix: u8) -> bool {
    let mask = prefix_to_mask(prefix);
    (u32::from(addr) & mask) == (u32::from(net) & mask)
}

/// Static configuration of one interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IfaceConfig {
    /// The interface's own address.
    pub addr: Ipv4Addr,
    /// Subnet prefix length.
    pub prefix: u8,
}

impl IfaceConfig {
    /// Creates a configuration.
    pub fn new(addr: Ipv4Addr, prefix: u8) -> IfaceConfig {
        IfaceConfig { addr, prefix }
    }

    /// The unconfigured state (0.0.0.0/0) used before DHCP completes.
    pub fn unconfigured() -> IfaceConfig {
        IfaceConfig { addr: Ipv4Addr::UNSPECIFIED, prefix: 0 }
    }

    /// True once an address is assigned.
    pub fn is_configured(&self) -> bool {
        self.addr != Ipv4Addr::UNSPECIFIED
    }
}

/// A configured interface bound to a simulator port.
#[derive(Debug, Clone)]
pub struct Iface {
    /// The port this interface transmits on.
    pub port: PortId,
    /// Address configuration.
    pub config: IfaceConfig,
}

/// One routing table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination network.
    pub dest: Ipv4Addr,
    /// Destination prefix length.
    pub prefix: u8,
    /// Egress port.
    pub port: PortId,
}

/// A routing table with longest-prefix match.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    routes: Vec<Route>,
}

impl Cleared for RoutingTable {
    fn cleared(self) -> RoutingTable {
        RoutingTable { routes: self.routes.cleared() }
    }
}

impl RoutingTable {
    /// Creates an empty table.
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Adds a route. Later identical-prefix routes shadow earlier ones.
    pub fn add(&mut self, dest: Ipv4Addr, prefix: u8, port: PortId) {
        self.routes.push(Route { dest, prefix, port });
    }

    /// Adds a default route (0.0.0.0/0).
    pub fn add_default(&mut self, port: PortId) {
        self.add(Ipv4Addr::UNSPECIFIED, 0, port);
    }

    /// Removes every route pointing at `port`.
    pub fn flush_port(&mut self, port: PortId) {
        self.routes.retain(|r| r.port != port);
    }

    /// Looks up the egress port for `dst` (longest prefix wins; among equal
    /// prefixes the most recently added wins).
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<PortId> {
        // `max_by_key` keeps the last maximum, so among equal prefixes the
        // most recently added route wins.
        self.routes
            .iter()
            .filter(|r| in_subnet(dst, r.dest, r.prefix))
            .max_by_key(|r| r.prefix)
            .map(|r| r.port)
    }

    /// All routes (diagnostics).
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_math() {
        assert_eq!(prefix_to_mask(0), 0);
        assert_eq!(prefix_to_mask(24), 0xFFFF_FF00);
        assert_eq!(prefix_to_mask(32), u32::MAX);
    }

    #[test]
    fn subnet_membership() {
        let net = Ipv4Addr::new(192, 168, 1, 0);
        assert!(in_subnet(Ipv4Addr::new(192, 168, 1, 200), net, 24));
        assert!(!in_subnet(Ipv4Addr::new(192, 168, 2, 1), net, 24));
        assert!(in_subnet(Ipv4Addr::new(8, 8, 8, 8), Ipv4Addr::UNSPECIFIED, 0));
    }

    #[test]
    fn longest_prefix_wins() {
        let mut table = RoutingTable::new();
        table.add_default(PortId(0));
        table.add(Ipv4Addr::new(10, 0, 0, 0), 8, PortId(1));
        table.add(Ipv4Addr::new(10, 0, 5, 0), 24, PortId(2));
        assert_eq!(table.lookup(Ipv4Addr::new(10, 0, 5, 9)), Some(PortId(2)));
        assert_eq!(table.lookup(Ipv4Addr::new(10, 9, 9, 9)), Some(PortId(1)));
        assert_eq!(table.lookup(Ipv4Addr::new(8, 8, 8, 8)), Some(PortId(0)));
    }

    #[test]
    fn later_route_shadows_equal_prefix() {
        let mut table = RoutingTable::new();
        table.add(Ipv4Addr::new(10, 0, 0, 0), 8, PortId(1));
        table.add(Ipv4Addr::new(10, 0, 0, 0), 8, PortId(2));
        assert_eq!(table.lookup(Ipv4Addr::new(10, 1, 1, 1)), Some(PortId(2)));
    }

    #[test]
    fn flush_port_removes_routes() {
        let mut table = RoutingTable::new();
        table.add_default(PortId(0));
        table.add(Ipv4Addr::new(10, 0, 0, 0), 8, PortId(1));
        table.flush_port(PortId(0));
        assert_eq!(table.lookup(Ipv4Addr::new(8, 8, 8, 8)), None);
        assert_eq!(table.lookup(Ipv4Addr::new(10, 1, 1, 1)), Some(PortId(1)));
    }

    #[test]
    fn empty_table_has_no_route() {
        assert_eq!(RoutingTable::new().lookup(Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    #[test]
    fn unconfigured_iface() {
        assert!(!IfaceConfig::unconfigured().is_configured());
        assert!(IfaceConfig::new(Ipv4Addr::new(10, 0, 1, 2), 24).is_configured());
    }
}
