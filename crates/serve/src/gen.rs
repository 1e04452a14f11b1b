//! Deterministic open-loop traffic generation.
//!
//! The serve bench models a *service*, not a loop: requests arrive on their
//! own schedule (Poisson, at a configured offered rate) whether or not the
//! store has kept up, and each worker tracks both **service time** (dequeue →
//! completion) and **sojourn time** (arrival → completion, queueing included
//! — the latency a simulated user actually observes; DESIGN.md §14). All
//! randomness comes from [`SplitMix64`] streams seeded per worker, so a
//! (seed, worker) pair names one exact request sequence — the property the
//! chaos oracle's cross-engine comparisons and the replay-style unit tests
//! lean on.

/// SplitMix64: the 64-bit mixing PRNG used for every serve-side random
/// choice. Tiny state, full-period, and — unlike the workspace `rand` shim's
/// `SmallRng` — a stable published algorithm, so the determinism tests can
/// pin exact expected outputs.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Stream seeded by `seed` (any value, including 0, is a valid stream).
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// One exponential inter-arrival gap, in nanoseconds, for a Poisson process
/// of `rate_rps` requests per second: `-ln(U) / rate`. Never returns 0 (two
/// requests may be arbitrarily close, but the arrival clock must advance so
/// the open-loop schedule stays strictly ordered).
pub fn exp_interarrival_ns(rng: &mut SplitMix64, rate_rps: f64) -> u64 {
    debug_assert!(rate_rps > 0.0);
    // 1 - U ∈ (0, 1]: ln is finite, and ln(1) = 0 maps to the `.max(1)` arm.
    let u = 1.0 - rng.next_f64();
    ((-u.ln() / rate_rps) * 1e9) as u64 + 1
}

/// Zipfian key-popularity sampler: key `k` (0-based rank) is drawn with
/// probability proportional to `1 / (k + 1)^s`. Built once per run as a
/// normalized cumulative table; sampling is a binary search, so a worker's
/// request loop costs O(log keys) per draw with no floating-point
/// accumulation drift across draws.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Sampler over `n ≥ 1` keys with exponent `s` (the paper-standard
    /// skews are 0.9 / 1.1 / 1.3; `s = 0` degenerates to uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one key");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        // Guard the binary search against the last entry rounding below 1.0.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the sampler covers no choice (never constructible; kept so
    /// `len` has the conventional companion).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Map a uniform `u ∈ [0, 1)` to a key rank. Deterministic in `u`, so
    /// callers can derive `u` from a *user id* hash and get a fixed
    /// user→key preference.
    pub fn sample_u01(&self, u: f64) -> usize {
        debug_assert!((0.0..=1.0).contains(&u));
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }

    /// Draw a key rank from `rng`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        self.sample_u01(rng.next_f64())
    }
}

/// Offered-load bookkeeping for one worker: every request is *arrived*
/// exactly once and *completed* at most once, so at every instant
/// `arrivals == completions + in_flight`. [`ServeResult`](crate::ServeResult)
/// aggregates these and the smoke/chaos checks assert the balance — a
/// miscounted (dropped or double-counted) request breaks it immediately.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LoadAccounting {
    /// Requests whose scheduled arrival time has passed and were admitted.
    pub arrivals: u64,
    /// Requests fully served.
    pub completions: u64,
    /// Admitted but not yet completed.
    pub in_flight: u64,
}

impl LoadAccounting {
    /// Admit one request.
    pub fn arrive(&mut self) {
        self.arrivals += 1;
        self.in_flight += 1;
    }

    /// Finish one admitted request.
    pub fn complete(&mut self) {
        assert!(self.in_flight > 0, "completion without a matching arrival");
        self.in_flight -= 1;
        self.completions += 1;
    }

    /// The conservation law of open-loop accounting.
    pub fn balanced(&self) -> bool {
        self.arrivals == self.completions + self.in_flight
    }

    /// Fold another worker's tallies into this one.
    pub fn merge(&mut self, other: &LoadAccounting) {
        self.arrivals += other.arrivals;
        self.completions += other.completions;
        self.in_flight += other.in_flight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn splitmix_streams_are_deterministic_and_seed_disjoint() {
        let mut a = SplitMix64::new(0x5eed);
        let mut b = SplitMix64::new(0x5eed);
        let first: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let again: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(first, again, "same seed, same stream");

        let mut c = SplitMix64::new(0x5eee);
        let other: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_ne!(first, other, "adjacent seeds diverge immediately");

        // Pin the published algorithm: seed 0's first output is the
        // finalizer applied to the golden-ratio increment.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn poisson_interarrivals_have_the_configured_mean() {
        let mut rng = SplitMix64::new(42);
        let rate = 10_000.0; // 10k rps → 100 µs mean gap
        let n = 200_000u64;
        let total: u64 = (0..n).map(|_| exp_interarrival_ns(&mut rng, rate)).sum();
        let mean = total as f64 / n as f64;
        let expect = 1e9 / rate;
        assert!(
            (mean - expect).abs() < expect * 0.02,
            "mean gap {mean:.0}ns vs expected {expect:.0}ns"
        );
        // And determinism: the same seed reproduces the same schedule.
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(
                exp_interarrival_ns(&mut a, rate),
                exp_interarrival_ns(&mut b, rate)
            );
        }
    }

    #[test]
    fn zipf_is_deterministic_and_rank_ordered() {
        for s in [0.9, 1.1, 1.3] {
            let z = Zipf::new(64, s);
            let mut rng = SplitMix64::new(9);
            let mut counts = vec![0u64; 64];
            for _ in 0..100_000 {
                counts[z.sample(&mut rng)] += 1;
            }
            assert!(
                counts[0] > counts[8] && counts[8] > counts[32],
                "s={s}: popularity must fall with rank: {:?}",
                &counts[..4]
            );
            assert!(counts[0] as f64 > 100_000.0 / 64.0 * 2.0, "s={s}: head is hot");

            // Same seed → identical draw sequence.
            let mut a = SplitMix64::new(123);
            let mut b = SplitMix64::new(123);
            for _ in 0..100 {
                assert_eq!(z.sample(&mut a), z.sample(&mut b));
            }
        }
        // u01 mapping is monotone: larger u never maps to a more popular key.
        let z = Zipf::new(16, 1.1);
        assert_eq!(z.sample_u01(0.0), 0);
        assert!(z.sample_u01(0.999) >= z.sample_u01(0.5));
    }

    proptest! {
        /// Conservation: for an arbitrary interleaving of arrivals and
        /// completions (completions only against in-flight requests), the
        /// accounting always balances and never loses a request.
        #[test]
        fn offered_load_accounting_balances(seed in any::<u64>(), steps in 1usize..400) {
            let mut rng = SplitMix64::new(seed);
            let mut acct = LoadAccounting::default();
            for _ in 0..steps {
                if acct.in_flight > 0 && rng.next_u64() % 2 == 0 {
                    acct.complete();
                } else {
                    acct.arrive();
                }
                prop_assert!(acct.balanced());
            }
            // Drain: after completing everything in flight, arrivals ==
            // completions exactly.
            while acct.in_flight > 0 {
                acct.complete();
            }
            prop_assert!(acct.balanced());
            prop_assert_eq!(acct.arrivals, acct.completions);
        }
    }
}
