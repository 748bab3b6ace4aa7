//! Seeded profile-space sampler: synthesizing plausible gateways beyond
//! Table 1.
//!
//! The paper characterizes 34 real devices; population-scale experiments
//! (mega-fleets, ROADMAP item 1) need thousands. This module treats the 34
//! calibrated [`DeviceProfile`]s as an *empirical sample of the gateway
//! population* and draws new profiles from the distributions they induce:
//!
//! * **Continuous dimensions** — the UDP timeout schedule
//!   (solitary/inbound/bidirectional) and the TCP idle timeout — are drawn
//!   from the empirical inverse CDF of the 34 observed values with uniform
//!   interpolation between adjacent order statistics. Samples therefore
//!   always land inside the observed envelope `[min, max]`, and cluster
//!   where the real population clusters (e.g. the 30 s UDP-1 cluster of
//!   Figure 3).
//! * **Categorical dimensions** — port assignment (23/4/7 split of §4.1),
//!   unknown-protocol handling (4 pass / 18+2 rewrite / 10 drop, §4.3),
//!   DNS-over-TCP mode (20/4/9/1), timer granularity, binding caps,
//!   hairpinning, filtering/mapping scopes — are drawn weighted by their
//!   observed frequency across the 34 devices. Binding caps are treated as
//!   categorical, not continuous, because real caps cluster on
//!   implementation constants (16, 512, 1024, …) rather than filling the
//!   range.
//! * **Correlated blocks** — ICMP translation behavior, the forwarding
//!   model, IP-level quirks, and per-service timeout overrides are copied
//!   wholesale from one *donor* device drawn uniformly from the 34 (each
//!   real device is one observation, so uniform choice **is** the
//!   population weighting). Copying the block keeps intra-block
//!   correlations the paper observed (e.g. devices that fail embedded
//!   checksum fixup also tend to skip header rewrites) instead of
//!   inventing impossible combinations.
//!
//! The sampler enforces the one cross-dimension invariant the paper states
//! outright (§4.1, "no devices shorten them"): the bidirectional timeout is
//! clamped to at least the inbound timeout.
//!
//! # Seeding and determinism
//!
//! DeviceProfile `slot` of campaign seed `s` is generated from a private RNG
//! keyed by `mix(s, slot)` (a splitmix64-style finalizer), so:
//!
//! * the same `(seed, n)` always yields a byte-identical fleet,
//! * profile `slot` can be regenerated alone, without sampling the
//!   `slot - 1` profiles before it, and
//! * fleets of different sizes share a prefix: the first 1 000 profiles of
//!   a 10 000-profile fleet equal the 1 000-profile fleet for the same
//!   seed.
//!
//! ```
//! use hgw_devices::sampler::ProfileSpace;
//!
//! let space = ProfileSpace::from_table1();
//! let fleet = space.sample_fleet(0x5EED, 100);
//! assert_eq!(fleet.len(), 100);
//! assert_eq!(fleet[7].tag, "syn00007");
//! // Slot 7 regenerates identically without its 7 predecessors.
//! let lone = space.sample(0x5EED, 7);
//! assert_eq!(format!("{:?}", lone), format!("{:?}", fleet[7]));
//! ```

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};

use hgw_core::{Duration, SimRng};
use hgw_gateway::{DnsProxyPolicy, EndpointScope, GatewayPolicy, PortAssignment};

use crate::profile::{DeviceProfile, Expected, Provenance};

/// Version stamp recorded as every synthetic profile's `firmware` field,
/// so manifests and debug output identify which sampling model produced a
/// profile.
pub const SAMPLER_VERSION: &str = "hgw-sampler/1";

/// The provenance record every synthetic profile points at.
pub static SYNTHETIC: Provenance =
    Provenance { vendor: "Synthetic", model: "profile-space", firmware: SAMPLER_VERSION };

/// An empirical distribution over one continuous dimension: the sorted
/// observed values, sampled by inverse CDF with uniform interpolation
/// between adjacent order statistics.
#[derive(Debug, Clone)]
struct Empirical {
    /// Observed values, ascending.
    sorted: Vec<f64>,
}

impl Empirical {
    fn fit(values: impl Iterator<Item = f64>) -> Empirical {
        let mut sorted: Vec<f64> = values.collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
        assert!(!sorted.is_empty(), "empirical distribution needs observations");
        Empirical { sorted }
    }

    /// Draws by inverse CDF: position `u · (n-1)` along the order
    /// statistics, linearly interpolated. Always inside `[min, max]`.
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = rng.f64() * (n - 1) as f64;
        let i = (pos.floor() as usize).min(n - 2);
        let frac = pos - i as f64;
        self.sorted[i] + frac * (self.sorted[i + 1] - self.sorted[i])
    }

    fn min(&self) -> f64 {
        self.sorted[0]
    }

    fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }
}

/// A frequency-weighted categorical distribution over observed variants.
#[derive(Debug, Clone)]
struct Categorical<T: Clone + PartialEq> {
    /// `(variant, observation count)` pairs, in first-seen order.
    variants: Vec<(T, u64)>,
    total: u64,
}

impl<T: Clone + PartialEq> Categorical<T> {
    fn fit(values: impl Iterator<Item = T>) -> Categorical<T> {
        let mut variants: Vec<(T, u64)> = Vec::new();
        let mut total = 0u64;
        for v in values {
            total += 1;
            match variants.iter_mut().find(|(existing, _)| *existing == v) {
                Some((_, count)) => *count += 1,
                None => variants.push((v, 1)),
            }
        }
        assert!(total > 0, "categorical distribution needs observations");
        Categorical { variants, total }
    }

    /// Draws a variant with probability proportional to its observed count.
    fn sample(&self, rng: &mut SimRng) -> T {
        let mut r = rng.below(self.total);
        for (v, count) in &self.variants {
            if r < *count {
                return v.clone();
            }
            r -= count;
        }
        unreachable!("counts sum to total")
    }
}

/// The fitted profile-space model: empirical distributions over every
/// sampled dimension of the 34 calibrated profiles (see the module docs
/// for the dimension-by-dimension model and `DESIGN.md` §9 for the worked
/// example).
#[derive(Debug, Clone)]
pub struct ProfileSpace {
    /// The seed profiles the space was fitted from (donors for the
    /// correlated blocks).
    seeds: Vec<DeviceProfile>,
    udp_solitary_secs: Empirical,
    udp_inbound_secs: Empirical,
    udp_bidirectional_secs: Empirical,
    tcp_timeout_secs: Empirical,
    timer_granularity: Categorical<Duration>,
    max_bindings: Categorical<usize>,
    port_assignment: Categorical<PortAssignment>,
    filtering: Categorical<EndpointScope>,
    mapping: Categorical<EndpointScope>,
    hairpinning: Categorical<bool>,
    dns_proxy: Categorical<DnsProxyPolicy>,
}

impl ProfileSpace {
    /// Fits the profile space over an arbitrary seed population.
    ///
    /// # Panics
    /// Panics when `seeds` is empty — there is no distribution to fit.
    pub fn fit(seeds: &[DeviceProfile]) -> ProfileSpace {
        assert!(!seeds.is_empty(), "profile space needs at least one seed profile");
        let p = |f: fn(&GatewayPolicy) -> f64| Empirical::fit(seeds.iter().map(|d| f(&d.policy)));
        ProfileSpace {
            seeds: seeds.to_vec(),
            udp_solitary_secs: p(|p| p.udp_timeout_solitary.as_secs_f64()),
            udp_inbound_secs: p(|p| p.udp_timeout_inbound.as_secs_f64()),
            udp_bidirectional_secs: p(|p| p.udp_timeout_bidirectional.as_secs_f64()),
            tcp_timeout_secs: p(|p| p.tcp_timeout.as_secs_f64()),
            timer_granularity: Categorical::fit(seeds.iter().map(|d| d.policy.timer_granularity)),
            max_bindings: Categorical::fit(seeds.iter().map(|d| d.policy.max_bindings)),
            port_assignment: Categorical::fit(seeds.iter().map(|d| d.policy.port_assignment)),
            filtering: Categorical::fit(seeds.iter().map(|d| d.policy.filtering)),
            mapping: Categorical::fit(seeds.iter().map(|d| d.policy.mapping)),
            hairpinning: Categorical::fit(seeds.iter().map(|d| d.policy.hairpinning)),
            dns_proxy: Categorical::fit(seeds.iter().map(|d| d.policy.dns_proxy)),
        }
    }

    /// Fits the space over the 34 calibrated profiles of Table 1 — the
    /// standard population model.
    pub fn from_table1() -> ProfileSpace {
        ProfileSpace::fit(&crate::all_devices())
    }

    /// Generates profile `slot` of the campaign keyed by `seed`.
    ///
    /// Pure in `(seed, slot)`: any slot regenerates independently of all
    /// others (see the module docs for the seeding contract). Synthetic
    /// tags are `syn<slot:05>`; the provenance record is [`SYNTHETIC`].
    pub fn sample(&self, seed: u64, slot: usize) -> DeviceProfile {
        let tags = TagArena::lock(slot + 1);
        self.generate(seed, slot, tags.tag(slot))
    }

    /// The body of [`ProfileSpace::sample`], given the slot's tag.
    fn generate(&self, seed: u64, slot: usize, tag: &'static str) -> DeviceProfile {
        let mut rng = SimRng::new(profile_seed(seed, slot));

        // Correlated blocks come from a population-weighted donor.
        let donor = &self.seeds[rng.below(self.seeds.len() as u64) as usize];
        let mut policy = donor.policy;

        // Headline dimensions are resampled from their empirical marginals.
        policy.udp_timeout_solitary = sample_timeout(&self.udp_solitary_secs, &mut rng);
        policy.udp_timeout_inbound = sample_timeout(&self.udp_inbound_secs, &mut rng);
        // §4.1: "no devices shorten them" — bidirectional never undercuts
        // inbound.
        let bidi = sample_timeout(&self.udp_bidirectional_secs, &mut rng);
        policy.udp_timeout_bidirectional = bidi.max(policy.udp_timeout_inbound);
        policy.tcp_timeout = sample_timeout(&self.tcp_timeout_secs, &mut rng);
        policy.timer_granularity = self.timer_granularity.sample(&mut rng);
        policy.max_bindings = self.max_bindings.sample(&mut rng);
        policy.port_assignment = self.port_assignment.sample(&mut rng);
        policy.filtering = self.filtering.sample(&mut rng);
        policy.mapping = self.mapping.sample(&mut rng);
        policy.hairpinning = self.hairpinning.sample(&mut rng);
        policy.dns_proxy = self.dns_proxy.sample(&mut rng);

        let expected = Expected {
            udp1_secs: policy.udp_timeout_solitary.as_secs_f64(),
            udp2_secs: policy.udp_timeout_inbound.as_secs_f64(),
            udp3_secs: policy.udp_timeout_bidirectional.as_secs_f64(),
            tcp1_mins: policy.tcp_timeout.as_secs_f64() / 60.0,
            max_bindings: policy.max_bindings,
        };
        DeviceProfile { tag, provenance: &SYNTHETIC, policy, expected }
    }

    /// Generates the first `n` profiles of the campaign keyed by `seed`
    /// (slots `0..n`). Once the tags of slots `0..n` exist, the returned
    /// `Vec` is the only allocation.
    pub fn sample_fleet(&self, seed: u64, n: usize) -> Vec<DeviceProfile> {
        let tags = TagArena::lock(n);
        (0..n).map(|slot| self.generate(seed, slot, tags.tag(slot))).collect()
    }
}

/// Convenience: sample `n` profiles from the Table 1 population model —
/// what `fleet_metrics` and the mega-fleet tests use. The model is fitted
/// once per process and shared.
pub fn synthetic_fleet(seed: u64, n: usize) -> Vec<DeviceProfile> {
    static TABLE1: OnceLock<ProfileSpace> = OnceLock::new();
    TABLE1.get_or_init(ProfileSpace::from_table1).sample_fleet(seed, n)
}

/// Splitmix64-style finalizer keying one profile's private RNG from the
/// campaign seed and slot. Distinct slots land in uncorrelated streams
/// even for adjacent seeds.
fn profile_seed(seed: u64, slot: usize) -> u64 {
    let mut z = seed ^ (slot as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a timeout from `dist`, rounds it to decisecond granularity (the
/// calibration data's dominant resolution), and clamps back into the
/// observed envelope — rounding alone could nudge a sample just past an
/// observed extremum that is not itself on a decisecond boundary.
fn sample_timeout(dist: &Empirical, rng: &mut SimRng) -> Duration {
    let rounded = (dist.sample(rng) * 10.0).round() / 10.0;
    Duration::from_secs_f64(rounded.clamp(dist.min(), dist.max()))
}

/// Synthetic tags per arena block.
const TAG_BLOCK: usize = 1024;

/// The process-wide synthetic tags (`syn<slot:05>`), stored in leaked
/// blocks of [`TAG_BLOCK`] fixed-width cells.
///
/// [`DeviceProfile::tag`] is `&'static str` (the 34 real tags are
/// literals). A synthetic tag is a slice of its block's text, so it costs
/// its width in bytes — no per-tag allocation, no per-tag index entry — and
/// repeated fleets, and fleets from different seeds (which share the
/// `syn<slot>` naming), hand out the same slices. Blocks are made on first
/// use, so the leak is bounded by the largest slot ever sampled, rounded up
/// to a block: a 136-device fleet pays for one block of 8-byte tags.
struct TagArena {
    /// Block `b` holds the tags of slots `b * TAG_BLOCK ..`.
    blocks: MutexGuard<'static, Vec<&'static str>>,
}

impl TagArena {
    /// Locks the arena once for a whole fleet, making the blocks that slots
    /// `0..n` need.
    fn lock(n: usize) -> TagArena {
        static BLOCKS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
        let mut blocks = BLOCKS.lock().unwrap_or_else(|e| e.into_inner());
        while blocks.len() * TAG_BLOCK < n {
            let first = blocks.len() * TAG_BLOCK;
            let width = tag_len(first + TAG_BLOCK - 1);
            let mut text = String::with_capacity(TAG_BLOCK * width);
            for slot in first..first + TAG_BLOCK {
                write!(text, "syn{slot:05}").expect("writing to a String");
                text.extend(std::iter::repeat_n(' ', width - tag_len(slot)));
            }
            blocks.push(text.leak());
        }
        TagArena { blocks }
    }

    /// The tag of `slot`, which must be below the `n` the arena was locked
    /// for.
    fn tag(&self, slot: usize) -> &'static str {
        let block = self.blocks[slot / TAG_BLOCK];
        let width = block.len() / TAG_BLOCK;
        let start = slot % TAG_BLOCK * width;
        &block[start..start + tag_len(slot)]
    }
}

/// Length of `syn<slot:05>`.
fn tag_len(slot: usize) -> usize {
    3 + slot.checked_ilog10().map_or(1, |d| d as usize + 1).max(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_devices;

    #[test]
    fn same_seed_yields_byte_identical_fleets() {
        let space = ProfileSpace::from_table1();
        let a = space.sample_fleet(0xF1EE7, 64);
        let b = space.sample_fleet(0xF1EE7, 64);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        // And tags are *the same allocation*, not merely equal.
        for (x, y) in a.iter().zip(&b) {
            assert!(std::ptr::eq(x.tag, y.tag));
        }
    }

    #[test]
    fn different_seeds_yield_different_fleets() {
        let space = ProfileSpace::from_table1();
        let a = space.sample_fleet(1, 16);
        let b = space.sample_fleet(2, 16);
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn slots_regenerate_independently() {
        let space = ProfileSpace::from_table1();
        let fleet = space.sample_fleet(0xABCD, 32);
        for slot in [0usize, 13, 31] {
            let lone = space.sample(0xABCD, slot);
            assert_eq!(format!("{lone:?}"), format!("{:?}", fleet[slot]), "slot {slot}");
        }
        // Prefix property: a smaller fleet is a prefix of a larger one.
        let small = space.sample_fleet(0xABCD, 8);
        assert_eq!(format!("{small:?}"), format!("{:?}", &fleet[..8]));
    }

    #[test]
    fn sampled_dimensions_stay_inside_the_observed_envelope() {
        let devices = all_devices();
        let space = ProfileSpace::fit(&devices);
        let env = |f: fn(&GatewayPolicy) -> f64| {
            let vals: Vec<f64> = devices.iter().map(|d| f(&d.policy)).collect();
            (
                vals.iter().copied().fold(f64::INFINITY, f64::min),
                vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        let (u1_lo, u1_hi) = env(|p| p.udp_timeout_solitary.as_secs_f64());
        let (u2_lo, u2_hi) = env(|p| p.udp_timeout_inbound.as_secs_f64());
        let (t_lo, t_hi) = env(|p| p.tcp_timeout.as_secs_f64());
        let observed_caps: std::collections::HashSet<usize> =
            devices.iter().map(|d| d.policy.max_bindings).collect();
        let observed_granularities: std::collections::HashSet<u64> =
            devices.iter().map(|d| d.policy.timer_granularity.as_millis()).collect();

        for d in space.sample_fleet(0x51DE, 500) {
            let u1 = d.policy.udp_timeout_solitary.as_secs_f64();
            let u2 = d.policy.udp_timeout_inbound.as_secs_f64();
            let u3 = d.policy.udp_timeout_bidirectional.as_secs_f64();
            let t = d.policy.tcp_timeout.as_secs_f64();
            assert!(u1 >= u1_lo && u1 <= u1_hi, "{}: udp1 {u1} outside [{u1_lo}, {u1_hi}]", d.tag);
            assert!(u2 >= u2_lo && u2 <= u2_hi, "{}: udp2 {u2} outside [{u2_lo}, {u2_hi}]", d.tag);
            assert!(u3 >= u2, "{}: bidirectional {u3} undercuts inbound {u2}", d.tag);
            assert!(t >= t_lo && t <= t_hi, "{}: tcp {t} outside [{t_lo}, {t_hi}]", d.tag);
            assert!(
                observed_caps.contains(&d.policy.max_bindings),
                "{}: cap {} never observed",
                d.tag,
                d.policy.max_bindings
            );
            assert!(observed_granularities.contains(&d.policy.timer_granularity.as_millis()));
            // Expected block mirrors the policy.
            assert_eq!(d.expected.udp1_secs, u1);
            assert_eq!(d.expected.max_bindings, d.policy.max_bindings);
        }
    }

    #[test]
    fn categorical_shares_track_observed_frequencies() {
        // 7/34 of the real devices allocate ports sequentially (§4.1); over
        // 2 000 samples the synthetic share must be in the same ballpark.
        let fleet = synthetic_fleet(0xCAFE, 2000);
        let sequential =
            fleet.iter().filter(|d| d.policy.port_assignment == PortAssignment::Sequential).count()
                as f64
                / fleet.len() as f64;
        let expect = 7.0 / 34.0;
        assert!(
            (sequential - expect).abs() < 0.05,
            "sequential share {sequential:.3} vs observed {expect:.3}"
        );
        // Only dl8 (1/34) has per-service overrides; the synthetic share
        // inherits that rarity via the donor block.
        let with_overrides =
            fleet.iter().filter(|d| !d.policy.udp_service_overrides.is_empty()).count() as f64
                / fleet.len() as f64;
        assert!(with_overrides < 0.10, "override share {with_overrides:.3}");
    }

    #[test]
    fn tags_are_unique_and_stable() {
        let fleet = synthetic_fleet(3, 300);
        let tags: std::collections::HashSet<&str> = fleet.iter().map(|d| d.tag).collect();
        assert_eq!(tags.len(), 300);
        assert_eq!(fleet[0].tag, "syn00000");
        assert_eq!(fleet[299].tag, "syn00299");
        for d in &fleet {
            assert_eq!(d.provenance.vendor, "Synthetic");
            assert_eq!(d.provenance.firmware, SAMPLER_VERSION);
        }
    }

    #[test]
    fn tags_keep_their_width_across_a_digit_boundary() {
        // Block 97 holds slots 99 328..100 351: 8-byte and 9-byte tags in
        // 9-byte cells.
        let tags = TagArena::lock(100_352);
        assert_eq!(tags.tag(99_999), "syn99999");
        assert_eq!(tags.tag(100_000), "syn100000");
        assert_eq!(tags.tag(100_351), "syn100351");
        assert_eq!(tags.tag(7), "syn00007");
    }

    #[test]
    #[should_panic(expected = "at least one seed profile")]
    fn empty_seed_population_panics() {
        let _ = ProfileSpace::fit(&[]);
    }
}
