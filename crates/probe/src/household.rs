//! Household traffic generator: many hosts, many concurrent flows, one NAT.
//!
//! The paper's probes each isolate one gateway property with a single
//! client. A real household stresses the same NAT with a *mixture* — short
//! web-like fetches, long bulk transfers, periodic UDP keepalives from
//! always-on apps, and DNS chatter — from several hosts at once. This
//! module drives that mixture deterministically in virtual time over a
//! multi-host [`Testbed`] (built with
//! [`TestbedBuilder::hosts`](hgw_testbed::TestbedBuilder::hosts)) and
//! reports the household-level figures the single-client probes cannot
//! see: binding-table churn, port-exhaustion onset, and per-flow fairness.
//!
//! Determinism: the driver owns a single [`SimRng`] seeded from
//! [`WorkloadConfig::seed`] and makes every scheduling decision itself, in
//! host-major slot order, between fixed [`WorkloadConfig::tick`] steps of
//! the simulator. Two runs with the same config and testbed seed are
//! bit-identical — including across
//! [`Parallelism`](crate::fleet::Parallelism) modes, since each device's
//! workload is independent of its neighbors'.

use std::collections::HashMap;
use std::net::SocketAddrV4;

use hgw_core::{
    BindingLifecycle, Duration, EventLog, FlowId, Histogram, Instant, SimRng, TraceEvent,
};
use hgw_gateway::{Gateway, NatStats};
use hgw_stack::host::{ListenerApp, TcpHandle, UdpHandle};
use hgw_testbed::{HostId, Testbed};
use hgw_wire::dns::DnsMessage;

use crate::throughput::{delay_from_stamps, STAMP_EVERY};

/// Server UDP port echoing household keepalives.
const KEEPALIVE_PORT: u16 = 4500;
/// First server TCP port for workload flows; each flow gets its own
/// listener so accepts are unambiguous.
const FLOW_PORT_BASE: u16 = 20_000;
/// A TCP flow that has not established within this budget is abandoned
/// (its SYN was most likely refused by a full NAT table).
const CONNECT_BUDGET: Duration = Duration::from_secs(5);
/// A DNS query unanswered after this long counts as lost.
const DNS_BUDGET: Duration = Duration::from_secs(3);

/// Knobs for one household run. `Default` is the 4-flow mix used by the
/// fleet's household mode; the workload is deterministic in (`seed`,
/// testbed seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadConfig {
    /// Concurrent flow slots per LAN host (the paper-style "K flows").
    pub flows_per_host: usize,
    /// Virtual-time length of the workload window.
    pub duration: Duration,
    /// Driver tick: the simulator runs in steps of this between
    /// scheduling decisions.
    pub tick: Duration,
    /// Relative weight of short web-like downloads in the mix.
    pub web_weight: u32,
    /// Relative weight of bulk uploads in the mix.
    pub bulk_weight: u32,
    /// Relative weight of UDP keepalive sessions in the mix.
    pub keepalive_weight: u32,
    /// Relative weight of DNS queries in the mix.
    pub dns_weight: u32,
    /// Payload size range (inclusive, bytes) of a web flow.
    pub web_bytes: (u64, u64),
    /// Payload size range (inclusive, bytes) of a bulk flow.
    pub bulk_bytes: (u64, u64),
    /// Lifetime range (inclusive, seconds) of a keepalive session —
    /// finite so sessions die and their bindings expire (churn).
    pub keepalive_secs: (u64, u64),
    /// Interval between keepalive datagrams within a session.
    pub keepalive_interval: Duration,
    /// Workload RNG seed (independent of the testbed seed).
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> WorkloadConfig {
        WorkloadConfig {
            flows_per_host: 4,
            duration: Duration::from_secs(30),
            tick: Duration::from_millis(50),
            web_weight: 5,
            bulk_weight: 1,
            keepalive_weight: 2,
            dns_weight: 2,
            web_bytes: (8 * 1024, 64 * 1024),
            bulk_bytes: (256 * 1024, 1024 * 1024),
            keepalive_secs: (20, 90),
            keepalive_interval: Duration::from_secs(5),
            seed: 0x4847_5748, // "HGWH"
        }
    }
}

/// Household-level results of one workload run. Fully deterministic:
/// compare two reports with `==` to assert bit-identical replays.
#[derive(Debug, Clone, PartialEq)]
pub struct HouseholdReport {
    /// LAN hosts driven.
    pub hosts: usize,
    /// Flow slots per host.
    pub flows_per_host: usize,
    /// Web flows started / completed.
    pub web_flows: (u64, u64),
    /// Bulk flows started / completed.
    pub bulk_flows: (u64, u64),
    /// Keepalive sessions started / expired naturally.
    pub keepalive_sessions: (u64, u64),
    /// DNS queries sent / answered.
    pub dns_queries: (u64, u64),
    /// TCP flows abandoned before establishing (NAT refusal or loss).
    pub connect_failures: u64,
    /// Application payload bytes delivered by completed TCP flows.
    pub bytes_transferred: u64,
    /// The gateway's NAT counters at the end of the run.
    pub nat: NatStats,
    /// Binding lifecycle events (created + expired) per virtual minute.
    pub churn_per_min: f64,
    /// Seconds from workload start to the NAT's first capacity refusal,
    /// if the table ever filled.
    pub port_exhaustion_onset_secs: Option<f64>,
    /// Per-flow goodput of completed TCP flows, recorded in kb/s.
    pub flow_throughput_kbps: Histogram,
    /// Per-flow median one-way delay (TCP-3 statistic), in microseconds.
    pub flow_delay_us: Histogram,
    /// Jain fairness index over completed TCP flows' goodput
    /// (1.0 = perfectly fair; `NaN` when fewer than one flow completed).
    pub fairness_jain: f64,
    /// Virtual seconds the workload actually ran.
    pub duration_secs: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowKind {
    Web,
    Bulk,
    Keepalive,
    Dns,
}

enum SlotState {
    Idle,
    /// TCP flow waiting for the server's accept.
    Connecting {
        kind: FlowKind,
        conn: TcpHandle,
        port: u16,
        bytes: u64,
        deadline: Instant,
    },
    /// TCP flow moving payload. `sink_on_client` is true for downloads.
    Transferring {
        kind: FlowKind,
        conn: TcpHandle,
        srv: TcpHandle,
        bytes: u64,
        started: Instant,
        sink_on_client: bool,
    },
    Keepalive {
        sock: UdpHandle,
        dies_at: Instant,
        next_send: Instant,
    },
    Dns {
        sock: UdpHandle,
        deadline: Instant,
    },
}

struct Driver<'a> {
    tb: &'a mut Testbed,
    cfg: &'a WorkloadConfig,
    rng: SimRng,
    slots: Vec<SlotState>,
    next_port: u16,
    /// Accepted server connections not yet claimed, keyed by listener port.
    accepts: HashMap<u16, TcpHandle>,
    report: Report,
}

/// Mutable accumulator for [`HouseholdReport`] counters.
#[derive(Default)]
struct Report {
    web: (u64, u64),
    bulk: (u64, u64),
    keepalive: (u64, u64),
    dns: (u64, u64),
    connect_failures: u64,
    bytes: u64,
    throughput: Histogram,
    delay: Histogram,
    goodputs: Vec<f64>,
}

impl Driver<'_> {
    fn pick_kind(&mut self) -> FlowKind {
        let c = self.cfg;
        let total = c.web_weight + c.bulk_weight + c.keepalive_weight + c.dns_weight;
        let mut roll = self.rng.below(u64::from(total.max(1))) as u32;
        for (kind, w) in [
            (FlowKind::Web, c.web_weight),
            (FlowKind::Bulk, c.bulk_weight),
            (FlowKind::Keepalive, c.keepalive_weight),
            (FlowKind::Dns, c.dns_weight),
        ] {
            if roll < w {
                return kind;
            }
            roll -= w;
        }
        FlowKind::Web
    }

    fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = self.next_port.checked_add(1).unwrap_or(FLOW_PORT_BASE);
        p
    }

    /// Drains the server's accept queue into the port-keyed map.
    fn drain_accepts(&mut self) {
        let fresh = self.tb.with_host(HostId::Server, |h, _| {
            h.tcp_accepted().into_iter().map(|c| (h.tcp(c).local.port(), c)).collect::<Vec<_>>()
        });
        self.accepts.extend(fresh);
    }

    fn start_flow(&mut self, host: usize, now: Instant) -> SlotState {
        match self.pick_kind() {
            kind @ (FlowKind::Web | FlowKind::Bulk) => {
                let (range, tally) = match kind {
                    FlowKind::Web => (self.cfg.web_bytes, &mut self.report.web.0),
                    _ => (self.cfg.bulk_bytes, &mut self.report.bulk.0),
                };
                *tally += 1;
                let bytes = self.rng.range_inclusive(range.0, range.1);
                let port = self.alloc_port();
                let server_addr = self.tb.server_addr;
                self.tb.with_host(HostId::Server, |h, _| h.tcp_listen(port, ListenerApp::Manual));
                let conn = self.tb.with_host(HostId::Lan(host), |h, ctx| {
                    h.tcp_connect(ctx, SocketAddrV4::new(server_addr, port))
                });
                SlotState::Connecting { kind, conn, port, bytes, deadline: now + CONNECT_BUDGET }
            }
            FlowKind::Keepalive => {
                self.report.keepalive.0 += 1;
                let life =
                    self.rng.range_inclusive(self.cfg.keepalive_secs.0, self.cfg.keepalive_secs.1);
                let server_addr = self.tb.server_addr;
                let sock = self.tb.with_host(HostId::Lan(host), |h, ctx| {
                    let s = h.udp_bind_ephemeral();
                    h.udp_send(ctx, s, SocketAddrV4::new(server_addr, KEEPALIVE_PORT), b"ka");
                    s
                });
                SlotState::Keepalive {
                    sock,
                    dies_at: now + Duration::from_secs(life),
                    next_send: now + self.cfg.keepalive_interval,
                }
            }
            FlowKind::Dns => {
                self.report.dns.0 += 1;
                let xid = self.rng.below(u64::from(u16::MAX)) as u16;
                let proxy = self.tb.gateway_lan_addr();
                let sock = self.tb.with_host(HostId::Lan(host), |h, ctx| {
                    let s = h.udp_bind_ephemeral();
                    let q = DnsMessage::query_a(xid, "www.hiit.fi");
                    h.udp_send(ctx, s, SocketAddrV4::new(proxy, 53), &q.emit());
                    s
                });
                SlotState::Dns { sock, deadline: now + DNS_BUDGET }
            }
        }
    }

    /// Advances one slot's state machine; returns the successor state.
    fn step_slot(&mut self, host: usize, state: SlotState, now: Instant) -> SlotState {
        match state {
            SlotState::Idle => self.start_flow(host, now),
            SlotState::Connecting { kind, conn, port, bytes, deadline } => {
                if let Some(srv) = self.accepts.remove(&port) {
                    // Established: web downloads (sink on the client), bulk
                    // uploads (sink on the server).
                    let download = kind == FlowKind::Web;
                    let (src, dst) = if download { (srv, conn) } else { (conn, srv) };
                    let (src_id, dst_id) = if download {
                        (HostId::Server, HostId::Lan(host))
                    } else {
                        (HostId::Lan(host), HostId::Server)
                    };
                    self.tb.with_host(dst_id, |h, _| h.tcp_mut(dst).set_sink(STAMP_EVERY));
                    self.tb.with_host(src_id, |h, ctx| {
                        h.tcp_mut(src).set_bulk_source(bytes, STAMP_EVERY);
                        h.kick(ctx);
                    });
                    return SlotState::Transferring {
                        kind,
                        conn,
                        srv,
                        bytes,
                        started: now,
                        sink_on_client: download,
                    };
                }
                if now >= deadline {
                    self.report.connect_failures += 1;
                    self.tb.with_host(HostId::Lan(host), |h, ctx| h.tcp_close(ctx, conn));
                    return SlotState::Idle;
                }
                SlotState::Connecting { kind, conn, port, bytes, deadline }
            }
            SlotState::Transferring { kind, conn, srv, bytes, started, sink_on_client } => {
                let (sink_id, sink) =
                    if sink_on_client { (HostId::Lan(host), conn) } else { (HostId::Server, srv) };
                let stats = self.tb.with_host(sink_id, |h, _| {
                    let s = h.tcp(sink).sink_stats().expect("sink enabled");
                    (s.bytes, s.bytes >= bytes)
                });
                if !stats.1 {
                    return SlotState::Transferring {
                        kind,
                        conn,
                        srv,
                        bytes,
                        started,
                        sink_on_client,
                    };
                }
                // Complete: harvest the sink, close both ends.
                let sink_stats =
                    self.tb.with_host(sink_id, |h, _| h.tcp(sink).sink_stats().unwrap().clone());
                let elapsed = (now - started).as_secs_f64().max(1e-9);
                let kbps = sink_stats.bytes as f64 * 8.0 / elapsed / 1000.0;
                self.report.throughput.record(kbps as u64);
                self.report.goodputs.push(kbps);
                let delay_ms = delay_from_stamps(&sink_stats);
                if delay_ms.is_finite() {
                    self.report.delay.record((delay_ms * 1000.0) as u64);
                }
                self.report.bytes += sink_stats.bytes;
                match kind {
                    FlowKind::Web => self.report.web.1 += 1,
                    _ => self.report.bulk.1 += 1,
                }
                self.tb.with_host(HostId::Lan(host), |h, ctx| h.tcp_close(ctx, conn));
                self.tb.with_host(HostId::Server, |h, ctx| h.tcp_close(ctx, srv));
                SlotState::Idle
            }
            SlotState::Keepalive { sock, dies_at, next_send } => {
                if now >= dies_at {
                    self.report.keepalive.1 += 1;
                    self.tb.with_host(HostId::Lan(host), |h, _| h.udp_close(sock));
                    return SlotState::Idle;
                }
                if now >= next_send {
                    let server_addr = self.tb.server_addr;
                    self.tb.with_host(HostId::Lan(host), |h, ctx| {
                        while h.udp_recv(sock).is_some() {} // drain echoes
                        h.udp_send(
                            ctx,
                            sock,
                            SocketAddrV4::new(server_addr, KEEPALIVE_PORT),
                            b"ka",
                        );
                    });
                    return SlotState::Keepalive {
                        sock,
                        dies_at,
                        next_send: now + self.cfg.keepalive_interval,
                    };
                }
                SlotState::Keepalive { sock, dies_at, next_send }
            }
            SlotState::Dns { sock, deadline } => {
                let answered = self.tb.with_host(HostId::Lan(host), |h, _| {
                    h.udp_recv(sock)
                        .and_then(|(_, data)| DnsMessage::parse(&data).ok())
                        .map(|m| m.is_response)
                        .unwrap_or(false)
                });
                if answered || now >= deadline {
                    if answered {
                        self.report.dns.1 += 1;
                    }
                    self.tb.with_host(HostId::Lan(host), |h, _| h.udp_close(sock));
                    return SlotState::Idle;
                }
                SlotState::Dns { sock, deadline }
            }
        }
    }
}

/// Fleet-level aggregate of [`HouseholdReport`]s — what the manifest's
/// `household` block renders. Deterministic: equal inputs in equal order
/// fold to an `==`-equal aggregate, so a fleet campaign can assert
/// bit-identity across parallelism modes on the aggregate alone.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HouseholdFleetSummary {
    /// Devices folded in.
    pub devices: usize,
    /// LAN hosts per device (from the last report; uniform by construction).
    pub hosts: usize,
    /// Flow slots per host.
    pub flows_per_host: usize,
    /// Web flows started / completed, fleet-wide.
    pub web_flows: (u64, u64),
    /// Bulk flows started / completed, fleet-wide.
    pub bulk_flows: (u64, u64),
    /// Keepalive sessions started / expired, fleet-wide.
    pub keepalive_sessions: (u64, u64),
    /// DNS queries sent / answered, fleet-wide.
    pub dns_queries: (u64, u64),
    /// TCP flows abandoned before establishing, fleet-wide.
    pub connect_failures: u64,
    /// Payload bytes delivered, fleet-wide.
    pub bytes_transferred: u64,
    /// NAT bindings created / expired / refreshed, summed over devices.
    pub bindings_created: u64,
    /// See [`HouseholdFleetSummary::bindings_created`].
    pub bindings_expired: u64,
    /// See [`HouseholdFleetSummary::bindings_created`].
    pub bindings_refreshed: u64,
    /// NAT capacity refusals, fleet-wide.
    pub refusals: u64,
    /// Devices whose table filled at least once during the workload.
    pub exhausted_devices: usize,
    /// Earliest port-exhaustion onset across the fleet, seconds.
    pub earliest_onset_secs: Option<f64>,
    /// Sum of per-device churn rates (divide by `devices` for the mean).
    pub churn_per_min_sum: f64,
    /// Per-flow goodput across every device's flows, kb/s.
    pub flow_throughput_kbps: Histogram,
    /// Per-flow delay across every device's flows, microseconds.
    pub flow_delay_us: Histogram,
    /// Sum of per-device Jain indices (NaN reports are skipped).
    pub fairness_jain_sum: f64,
    /// Reports whose Jain index was defined (divisor for the mean).
    pub fairness_jain_count: usize,
}

impl HouseholdFleetSummary {
    /// An empty aggregate.
    pub fn new() -> HouseholdFleetSummary {
        HouseholdFleetSummary::default()
    }

    /// Folds one device's report in.
    pub fn record(&mut self, r: &HouseholdReport) {
        self.devices += 1;
        self.hosts = r.hosts;
        self.flows_per_host = r.flows_per_host;
        self.web_flows.0 += r.web_flows.0;
        self.web_flows.1 += r.web_flows.1;
        self.bulk_flows.0 += r.bulk_flows.0;
        self.bulk_flows.1 += r.bulk_flows.1;
        self.keepalive_sessions.0 += r.keepalive_sessions.0;
        self.keepalive_sessions.1 += r.keepalive_sessions.1;
        self.dns_queries.0 += r.dns_queries.0;
        self.dns_queries.1 += r.dns_queries.1;
        self.connect_failures += r.connect_failures;
        self.bytes_transferred += r.bytes_transferred;
        self.bindings_created += r.nat.bindings_created;
        self.bindings_expired += r.nat.bindings_expired;
        self.bindings_refreshed += r.nat.bindings_refreshed;
        self.refusals += r.nat.refusals;
        if let Some(onset) = r.port_exhaustion_onset_secs {
            self.exhausted_devices += 1;
            self.earliest_onset_secs =
                Some(self.earliest_onset_secs.map_or(onset, |e| e.min(onset)));
        }
        self.churn_per_min_sum += r.churn_per_min;
        self.flow_throughput_kbps.merge(&r.flow_throughput_kbps);
        self.flow_delay_us.merge(&r.flow_delay_us);
        if r.fairness_jain.is_finite() {
            self.fairness_jain_sum += r.fairness_jain;
            self.fairness_jain_count += 1;
        }
    }

    /// Mean per-device churn rate (0 when empty).
    pub fn churn_per_min_mean(&self) -> f64 {
        if self.devices == 0 {
            0.0
        } else {
            self.churn_per_min_sum / self.devices as f64
        }
    }

    /// Mean Jain fairness index over devices where it was defined.
    pub fn fairness_jain_mean(&self) -> Option<f64> {
        (self.fairness_jain_count > 0)
            .then(|| self.fairness_jain_sum / self.fairness_jain_count as f64)
    }
}

/// Jain's fairness index `(Σx)² / (n · Σx²)` over per-flow goodput.
pub fn jain_index(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq == 0.0 {
        return f64::NAN;
    }
    sum * sum / (xs.len() as f64 * sq)
}

/// Drives the household mixture over every LAN host of `tb` for
/// [`WorkloadConfig::duration`] of virtual time and reports the
/// household-level measurements.
///
/// Works on any [`Testbed`] — a 1-host preset degenerates to a single
/// busy client — but is built for `Testbed::builder(..).hosts(m)`.
pub fn measure_household(tb: &mut Testbed, cfg: &WorkloadConfig) -> HouseholdReport {
    let hosts = tb.hosts.len();
    let span = tb
        .span("household")
        .arg(format_args!("{} hosts x {} flows", hosts, cfg.flows_per_host))
        .begin();
    let start = tb.now();

    tb.with_host(HostId::Server, |h, _| {
        let s = h.udp_bind(KEEPALIVE_PORT);
        h.udp_set_echo(s, true);
        h.tcp_accepted(); // drop any backlog an earlier probe left behind
    });

    let mut slots = Vec::new();
    for _ in 0..hosts * cfg.flows_per_host {
        slots.push(SlotState::Idle);
    }
    let mut d = Driver {
        tb,
        cfg,
        rng: SimRng::new(cfg.seed),
        slots,
        next_port: FLOW_PORT_BASE,
        accepts: HashMap::new(),
        report: Report::default(),
    };

    let deadline = start + cfg.duration;
    while d.tb.now() < deadline {
        d.drain_accepts();
        let now = d.tb.now();
        for i in 0..d.slots.len() {
            let host = i / cfg.flows_per_host;
            let state = std::mem::replace(&mut d.slots[i], SlotState::Idle);
            d.slots[i] = d.step_slot(host, state, now);
        }
        d.tb.run_for(cfg.tick);
    }

    // Teardown: close whatever is still open so the tail of the run (and
    // any probe that follows) starts from a quiet stack.
    for i in 0..d.slots.len() {
        let host = i / cfg.flows_per_host;
        match std::mem::replace(&mut d.slots[i], SlotState::Idle) {
            SlotState::Idle => {}
            SlotState::Connecting { conn, .. } | SlotState::Transferring { conn, .. } => {
                d.tb.with_host(HostId::Lan(host), |h, ctx| h.tcp_close(ctx, conn));
            }
            SlotState::Keepalive { sock, .. } | SlotState::Dns { sock, .. } => {
                d.tb.with_host(HostId::Lan(host), |h, _| h.udp_close(sock));
            }
        }
    }
    d.tb.run_for(Duration::from_secs(1));

    let Driver { tb, report, .. } = d;
    let nat = tb.with_node::<Gateway, _>(tb.gateway, |g, _| g.nat_stats());
    let elapsed = (tb.now() - start).as_secs_f64();
    let minutes = (elapsed / 60.0).max(1e-9);
    let report_out = HouseholdReport {
        hosts,
        flows_per_host: cfg.flows_per_host,
        web_flows: report.web,
        bulk_flows: report.bulk,
        keepalive_sessions: report.keepalive,
        dns_queries: report.dns,
        connect_failures: report.connect_failures,
        bytes_transferred: report.bytes,
        nat,
        churn_per_min: (nat.bindings_created + nat.bindings_expired) as f64 / minutes,
        port_exhaustion_onset_secs: nat.first_refusal_at.map(|t| (t - start).as_secs_f64()),
        flow_throughput_kbps: report.throughput,
        flow_delay_us: report.delay,
        fairness_jain: jain_index(&report.goodputs),
        duration_secs: elapsed,
    };
    tb.span_end(span);
    report_out
}

/// One NAT flow's complete binding history from a traced run: every
/// lifecycle event the gateway emitted for that flow, in causal order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowBindingHistory {
    /// Deterministic flow identity (see [`FlowId`]).
    pub flow: FlowId,
    /// IP protocol number (17 UDP, 6 TCP, 1 ICMP query).
    pub proto: u8,
    /// External port of the binding (0 when the flow was only refused).
    pub external_port: u16,
    /// Timestamped lifecycle steps in emission order.
    pub events: Vec<(Instant, BindingLifecycle)>,
}

/// Groups the [`TraceEvent::Binding`] events of a recorded run into
/// per-flow histories, in first-seen flow order. Non-binding events are
/// ignored, so the log may carry a whole run's trace stream.
pub fn flow_binding_histories(log: &EventLog) -> Vec<FlowBindingHistory> {
    let mut flows: Vec<FlowBindingHistory> = Vec::new();
    let mut index: HashMap<FlowId, usize> = HashMap::new();
    for (at, _node, ev) in log.events() {
        if let TraceEvent::Binding { flow, proto, external_port, lifecycle } = ev {
            let i = *index.entry(*flow).or_insert_with(|| {
                flows.push(FlowBindingHistory {
                    flow: *flow,
                    proto: *proto,
                    external_port: *external_port,
                    events: Vec::new(),
                });
                flows.len() - 1
            });
            // A refusal carries port 0; backfill once the flow gets a
            // real binding (port-preserving retry after quarantine).
            if flows[i].external_port == 0 {
                flows[i].external_port = *external_port;
            }
            flows[i].events.push((*at, *lifecycle));
        }
    }
    flows
}

/// [`measure_household`] with binding-lifecycle tracing on: enables
/// tracing on the gateway, records the run's lifecycle stream through an
/// [`EventLog`] observer, and returns the report plus per-flow binding
/// histories.
///
/// The report is bit-identical to an untraced run's (pinned by tests) —
/// tracing is a pure sink. The helper holds the simulator's observer slot
/// for the run; fleet metrics do not use that slot, so it works as a
/// [`FleetRunner`](crate::fleet::FleetRunner) probe too.
pub fn measure_household_traced(
    tb: &mut Testbed,
    cfg: &WorkloadConfig,
) -> (HouseholdReport, Vec<FlowBindingHistory>) {
    tb.topo.enable_lifecycle_tracing();
    tb.topo.sim.attach_observer(Box::new(EventLog::new()));
    let report = measure_household(tb, cfg);
    let log = tb.topo.sim.detach_observer().expect("household trace observer present");
    let log = log.as_any().downcast_ref::<EventLog>().expect("household observer is an EventLog");
    (report, flow_binding_histories(log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgw_gateway::GatewayPolicy;

    fn quick_cfg() -> WorkloadConfig {
        WorkloadConfig {
            flows_per_host: 2,
            duration: Duration::from_secs(10),
            web_bytes: (4 * 1024, 16 * 1024),
            bulk_bytes: (32 * 1024, 64 * 1024),
            keepalive_secs: (3, 8),
            keepalive_interval: Duration::from_secs(2),
            ..WorkloadConfig::default()
        }
    }

    #[test]
    fn traced_household_is_bit_identical_and_reports_flow_histories() {
        let mk =
            || Testbed::builder("hh-trace", GatewayPolicy::well_behaved()).seed(5).hosts(3).build();
        let plain = measure_household(&mut mk(), &quick_cfg());
        let (traced, flows) = measure_household_traced(&mut mk(), &quick_cfg());
        assert_eq!(plain, traced, "lifecycle tracing must not change the household report");

        assert!(!flows.is_empty(), "a traced household run must see NAT flows");
        let mut created = 0u64;
        let mut refreshed = 0u64;
        for f in &flows {
            assert!(!f.events.is_empty());
            assert!(
                matches!(
                    f.events[0].1,
                    BindingLifecycle::Created { .. } | BindingLifecycle::Refused { .. }
                ),
                "a flow's history must start with its binding's creation or refusal"
            );
            for w in f.events.windows(2) {
                assert!(w[0].0 <= w[1].0, "history timestamps must be causally ordered");
            }
            for (_, l) in &f.events {
                match l {
                    BindingLifecycle::Created { .. } => created += 1,
                    BindingLifecycle::Refreshed => refreshed += 1,
                    _ => {}
                }
            }
        }
        // The event stream reconciles with the NAT's own counters.
        assert_eq!(created, traced.nat.bindings_created);
        assert!(refreshed >= traced.nat.bindings_refreshed);
    }

    #[test]
    fn traced_household_replays_bit_identically() {
        let run = || {
            let mut tb = Testbed::builder("hh-trace", GatewayPolicy::well_behaved())
                .seed(9)
                .hosts(2)
                .build();
            measure_household_traced(&mut tb, &quick_cfg())
        };
        let (r1, f1) = run();
        let (r2, f2) = run();
        assert_eq!(r1, r2, "traced runs must replay bit-identically");
        assert_eq!(f1, f2, "flow histories must replay bit-identically");
    }

    #[test]
    fn household_mixture_moves_traffic() {
        let mut tb =
            Testbed::builder("hh", GatewayPolicy::well_behaved()).seed(77).hosts(3).build();
        let r = measure_household(&mut tb, &quick_cfg());
        assert_eq!(r.hosts, 3);
        assert!(r.web_flows.1 > 0, "no web flow completed: {r:?}");
        assert!(r.bytes_transferred > 0);
        assert!(r.nat.bindings_created > 0);
        assert!(r.churn_per_min > 0.0);
        assert_eq!(r.port_exhaustion_onset_secs, None, "well-behaved table must not fill");
        let jain = r.fairness_jain;
        assert!(jain.is_nan() || (0.0..=1.0 + 1e-9).contains(&jain), "jain={jain}");
    }

    #[test]
    fn same_seed_replays_bit_identically() {
        let mk = || {
            let mut tb =
                Testbed::builder("hh-det", GatewayPolicy::well_behaved()).seed(5).hosts(2).build();
            measure_household(&mut tb, &quick_cfg())
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn tiny_binding_table_hits_exhaustion() {
        let mut policy = GatewayPolicy::well_behaved();
        policy.max_bindings = 3;
        let mut tb = Testbed::builder("hh-small", policy).seed(9).hosts(3).build();
        let r = measure_household(&mut tb, &quick_cfg());
        assert!(r.nat.refusals > 0, "3-binding table should refuse: {r:?}");
        let onset = r.port_exhaustion_onset_secs.expect("onset recorded");
        assert!(onset >= 0.0 && onset <= r.duration_secs);
    }

    #[test]
    fn jain_index_basics() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!(jain_index(&[]).is_nan());
    }
}
