//! The four closed-loop fleet workloads: which devices, which probe, and
//! what a correct result looks like.
//!
//! Every workload samples its devices with
//! `hgw_devices::synthetic_fleet(seed, n)`, whose continuous marginals
//! avoid the quantile gaps of the 34 Table-1 profiles, and runs one probe
//! per device through `FleetRunner::run_fold` with one sequential worker.

use hgw_core::{Dir, LinkId};
use hgw_devices::DeviceProfile;
use hgw_gateway::Gateway;
use hgw_probe::household::{measure_household, WorkloadConfig};
use hgw_probe::max_bindings::{measure_max_bindings, StopReason};
use hgw_probe::throughput::{run_battery, TransferResult};
use hgw_probe::udp_timeout::measure_udp1;
use hgw_testbed::Testbed;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// UDP-1 binary search over a 10 k mega-fleet: per-device fixed cost,
    /// a third of it testbed bring-up.
    Udp1Fleet,
    /// TCP-2 battery (upload, download, both at once): the per-segment path.
    Tcp2Bulk,
    /// TCP-4 ramp to 256 connections: costs that grow with live sockets and
    /// live bindings.
    Tcp4Ramp,
    /// 4 hosts x 8 flows of web/bulk/keepalive/DNS: binding churn, short
    /// connections, switch and multi-host DHCP bring-up.
    Household,
}

/// Payload each TCP-2 transfer moves.
const TCP2_BYTES: u64 = 2 * 1024 * 1024;
/// TCP-4 ceiling: at 512 identical runs spread by half, at 256 the
/// largest socket tables still fit in cache.
const TCP4_CEILING: usize = 256;
const TCP4_BATCH: usize = 32;
const HOUSEHOLD_HOSTS: usize = 4;
const HOUSEHOLD_FLOWS: usize = 8;
const HOUSEHOLD_SECS: u64 = 5;
/// UDP-1 server port (any port the testbed leaves free).
const UDP1_PORT: u16 = 20_000;

/// What one probe call produced, reduced to what the benchmark checks and
/// counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probed {
    /// Order-independent digest input: the probe's result fields.
    pub result_digest: u64,
    /// The result passed the workload's correctness check.
    pub ok: bool,
    /// Application bytes delivered (headers and retransmissions excluded).
    pub payload_bytes: u64,
    /// TCP connections established and verified.
    pub connections: u64,
    /// The measured UDP-1 binding timeout (UDP-1 only), folded into
    /// `FleetDistributions`.
    pub udp1_timeout_secs: Option<f64>,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Udp1Fleet, Workload::Tcp2Bulk, Workload::Tcp4Ramp, Workload::Household];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Udp1Fleet => "udp1_fleet",
            Workload::Tcp2Bulk => "tcp2_bulk",
            Workload::Tcp4Ramp => "tcp4_ramp",
            Workload::Household => "household",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Devices per campaign: at least 100 everywhere, so a p90 has at least
    /// ten devices beyond it within one campaign.
    pub fn device_count(self) -> usize {
        match self {
            Workload::Udp1Fleet => 10_000,
            Workload::Tcp2Bulk | Workload::Tcp4Ramp | Workload::Household => 136,
        }
    }

    /// The campaign's devices: `synthetic_fleet(seed, n)` with the binding
    /// cap of slot `i` set to the cap of Table-1 profile `i mod 34`.
    ///
    /// The cap decides most of a TCP-4 or household device's work, and the
    /// sampler draws it from only 34 values; drawn freely, the share of
    /// devices at the TCP-4 ceiling alone moves a 136-device campaign's
    /// cost by about a tenth from seed to seed. Cycling the caps gives every
    /// seed the same cap mix; every other dimension still comes from the
    /// seed.
    pub fn devices(self, seed: u64) -> Vec<DeviceProfile> {
        let caps: Vec<usize> =
            hgw_devices::all_devices().iter().map(|d| d.policy.max_bindings).collect();
        let mut devices = hgw_devices::synthetic_fleet(seed, self.device_count());
        for (slot, d) in devices.iter_mut().enumerate() {
            d.policy.max_bindings = caps[slot % caps.len()];
            d.expected.max_bindings = d.policy.max_bindings;
        }
        devices
    }

    pub fn hosts(self) -> usize {
        match self {
            Workload::Household => HOUSEHOLD_HOSTS,
            _ => 1,
        }
    }

    /// Runs this workload's probe on one device's testbed.
    pub fn probe(self, tb: &mut Testbed, device: &DeviceProfile, seed: u64) -> Probed {
        match self {
            Workload::Udp1Fleet => {
                let r = measure_udp1(tb, UDP1_PORT);
                // The binary search converges within a second of the
                // device's timer grid around its configured timeout.
                let slack = device.policy.timer_granularity.as_secs_f64() + 2.0;
                let ok = (r.timeout_secs - device.expected.udp1_secs).abs() <= slack;
                Probed {
                    result_digest: digest(&[r.timeout_secs.to_bits(), r.trials as u64]),
                    ok,
                    udp1_timeout_secs: Some(r.timeout_secs),
                    ..Probed::default()
                }
            }
            Workload::Tcp2Bulk => {
                let r = run_battery(tb, TCP2_BYTES);
                let legs = [r.upload, r.download, r.upload_during_bidir, r.download_during_bidir];
                let ok = legs.iter().all(|t| t.completed && t.bytes == TCP2_BYTES);
                Probed {
                    result_digest: digest(
                        &legs.iter().flat_map(transfer_words).collect::<Vec<_>>(),
                    ),
                    ok,
                    payload_bytes: legs.iter().map(|t| t.bytes).sum(),
                    connections: legs.len() as u64,
                    udp1_timeout_secs: None,
                }
            }
            Workload::Tcp4Ramp => {
                let r = measure_max_bindings(tb, TCP4_BATCH, TCP4_CEILING);
                let cap = device.policy.max_bindings;
                let ok = match r.stopped_because {
                    StopReason::ProbeCeiling => {
                        r.max_bindings == TCP4_CEILING && cap >= TCP4_CEILING
                    }
                    StopReason::ConnectFailed | StopReason::MessageFailed => r.max_bindings <= cap,
                };
                Probed {
                    result_digest: digest(&[r.max_bindings as u64, r.stopped_because as u64]),
                    ok,
                    // One one-byte message each way per live connection per
                    // verification round is too small to count as payload.
                    payload_bytes: 0,
                    connections: r.max_bindings as u64,
                    udp1_timeout_secs: None,
                }
            }
            Workload::Household => {
                // Each device draws its own traffic mix, so a campaign
                // averages over mixes instead of repeating one per seed.
                let tag = device.tag.bytes().map(u64::from).collect::<Vec<_>>();
                let cfg = WorkloadConfig {
                    flows_per_host: HOUSEHOLD_FLOWS,
                    duration: hgw_core::Duration::from_secs(HOUSEHOLD_SECS),
                    seed: digest(&[&[seed][..], &tag].concat()),
                    ..WorkloadConfig::default()
                };
                let r = measure_household(tb, &cfg);
                let ok = r.hosts == HOUSEHOLD_HOSTS
                    && r.web_flows.1 <= r.web_flows.0
                    && r.bulk_flows.1 <= r.bulk_flows.0
                    && r.dns_queries.1 <= r.dns_queries.0
                    && r.web_flows.1 + r.bulk_flows.1 > 0
                    && r.bytes_transferred > 0;
                Probed {
                    result_digest: digest(&[
                        r.web_flows.0,
                        r.web_flows.1,
                        r.bulk_flows.0,
                        r.bulk_flows.1,
                        r.keepalive_sessions.0,
                        r.keepalive_sessions.1,
                        r.dns_queries.0,
                        r.dns_queries.1,
                        r.connect_failures,
                        r.bytes_transferred,
                        r.flow_throughput_kbps.sum(),
                        r.flow_delay_us.sum(),
                        r.fairness_jain.to_bits(),
                        r.duration_secs.to_bits(),
                    ]),
                    ok,
                    payload_bytes: r.bytes_transferred,
                    connections: r.web_flows.1 + r.bulk_flows.1,
                    udp1_timeout_secs: None,
                }
            }
        }
    }
}

fn transfer_words(t: &TransferResult) -> [u64; 4] {
    [t.throughput_mbps.to_bits(), t.delay_ms.to_bits(), t.bytes, t.completed as u64]
}

/// Deterministic counters of one finished device, read from the public
/// stats structs after the probe returns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub events: u64,
    pub frames_delivered: u64,
    pub frames_dropped: u64,
    pub peak_queue_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub link_tx_frames: u64,
    pub link_drops_queue: u64,
    pub link_queue_peak_bytes: u64,
    pub bindings_created: u64,
    pub bindings_refreshed: u64,
    pub bindings_expired: u64,
    pub refusals: u64,
    pub peak_bindings: u64,
}

impl Counters {
    pub fn read(tb: &Testbed) -> Counters {
        let s = tb.sim.stats();
        let nat = tb.sim.node_ref::<Gateway>(tb.gateway).nat_stats();
        let mut c = Counters {
            events: s.events,
            frames_delivered: s.frames_delivered,
            frames_dropped: s.frames_dropped.total(),
            peak_queue_bytes: s.peak_queue_bytes as u64,
            pool_hits: s.pool_hits,
            pool_misses: s.pool_misses,
            bindings_created: nat.bindings_created,
            bindings_refreshed: nat.bindings_refreshed,
            bindings_expired: nat.bindings_expired,
            refusals: nat.refusals,
            peak_bindings: nat.peak_bindings as u64,
            ..Counters::default()
        };
        // The WAN link is the testbed's last link, so every link id up to
        // it is one of this testbed's links.
        for id in 0..=tb.wan_link.0 {
            for dir in [Dir::AtoB, Dir::BtoA] {
                let l = tb.sim.link(LinkId(id)).stats(dir);
                c.link_tx_frames += l.tx_frames;
                c.link_drops_queue += l.drops_queue;
                c.link_queue_peak_bytes = c.link_queue_peak_bytes.max(l.queue_peak_bytes as u64);
            }
        }
        c
    }

    /// The schedule-independent part, as digest input. Pool hits are left
    /// out: they depend on which device ran before on the same worker.
    pub fn digest(&self) -> u64 {
        digest(&[
            self.events,
            self.frames_delivered,
            self.frames_dropped,
            self.peak_queue_bytes,
            self.link_tx_frames,
            self.link_drops_queue,
            self.link_queue_peak_bytes,
            self.bindings_created,
            self.bindings_refreshed,
            self.bindings_expired,
            self.refusals,
            self.peak_bindings,
        ])
    }

    pub fn add(&mut self, o: &Counters) {
        self.events += o.events;
        self.frames_delivered += o.frames_delivered;
        self.frames_dropped += o.frames_dropped;
        self.peak_queue_bytes = self.peak_queue_bytes.max(o.peak_queue_bytes);
        self.pool_hits += o.pool_hits;
        self.pool_misses += o.pool_misses;
        self.link_tx_frames += o.link_tx_frames;
        self.link_drops_queue += o.link_drops_queue;
        self.link_queue_peak_bytes = self.link_queue_peak_bytes.max(o.link_queue_peak_bytes);
        self.bindings_created += o.bindings_created;
        self.bindings_refreshed += o.bindings_refreshed;
        self.bindings_expired += o.bindings_expired;
        self.refusals += o.refusals;
        self.peak_bindings = self.peak_bindings.max(o.peak_bindings);
    }
}

/// Splitmix64 chain over `words`: the per-device digest. Devices combine by
/// wrapping addition, which is order-independent.
pub fn digest(words: &[u64]) -> u64 {
    words.iter().fold(0x6867_772d_6265_6e63, |h, &w| {
        let mut z = (h ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    })
}
