//! Order statistics over exact samples. Percentiles are found by selection
//! (`select_nth_unstable`), never by bucketing, so a reported p99 is a value
//! that was actually measured.

/// The `p`-th percentile (`0 < p <= 100`) by the nearest-rank rule: the
/// smallest sample with at least `p` % of the samples at or below it.
/// Reorders `samples`; returns 0 for an empty slice.
///
/// Samples are whole nanoseconds, so many tie at the percentile's value `v`.
/// Those ties are read as spread evenly over `[v − ½, v + ½)` and the result
/// is the rank's place among them (the grouped-data percentile): it rounds
/// to `v`, equals `v` when nothing ties, and moves smoothly when the
/// distribution shifts by less than the clock's resolution.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let v = *samples.select_nth_unstable(rank - 1).1;
    let below = samples.iter().filter(|&&s| s < v).count();
    let equal = samples.iter().filter(|&&s| s == v).count();
    f64::from(v) - 0.5 + ((rank - below) as f64 - 0.5) / equal as f64
}

/// Median of a few trial values (the mean of the middle two for an even
/// count). Panics on an empty slice: a metric with no trial is a harness bug.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no trials");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile of a log₂ histogram given as per-bucket counts (bucket `i`
/// covers `[2^i, 2^(i+1))` ns): the inclusive upper bound of the bucket the
/// rank falls in, so the result is quantised to a power of two minus one.
pub fn log2_percentile(buckets: &[u64], p: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0;
    for (i, &b) in buckets.iter().enumerate() {
        seen += b;
        if seen >= rank {
            return (1u64 << (i + 1)) - 1;
        }
    }
    unreachable!("rank {rank} exceeds the histogram's count {count}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use drink_serve::SplitMix64;

    #[test]
    fn percentile_by_selection_matches_a_sorted_reference() {
        let mut rng = SplitMix64::new(0xBEEF);
        for n in [1usize, 2, 7, 100, 1_000, 4_097] {
            let samples: Vec<u32> = (0..n).map(|_| (rng.next_u64() % 10_000) as u32).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for p in [0.1, 1.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
                let got = percentile(&mut samples.clone(), p);
                assert_eq!(got.round(), f64::from(sorted[rank - 1]), "n={n} p={p}");
            }
        }
        assert_eq!(percentile(&mut [], 99.0), 0.0);
    }

    #[test]
    fn percentile_places_the_rank_among_tied_samples() {
        assert_eq!(
            percentile(&mut [10, 20, 30], 50.0),
            20.0,
            "no tie: the sample itself"
        );
        // Rank 5 of 10 is the fourth of six samples tied at 7.
        let mut tied = [1, 7, 7, 7, 7, 7, 7, 9, 9, 9];
        assert_eq!(percentile(&mut tied, 50.0), 7.0 - 0.5 + 3.5 / 6.0);
        // More samples below the tie: the same value, read lower within it.
        let mut lower = [1, 1, 1, 7, 7, 7, 7, 7, 7, 9];
        assert!(percentile(&mut lower, 50.0) < percentile(&mut tied, 50.0));
    }

    #[test]
    fn median_takes_the_middle_trial() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn log2_percentile_reports_the_bucket_upper_bound() {
        let mut buckets = [0u64; 32];
        buckets[4] = 90; // [16, 32)
        buckets[10] = 10; // [1024, 2048)
        assert_eq!(log2_percentile(&buckets, 50.0), 31);
        assert_eq!(log2_percentile(&buckets, 99.0), 2047);
        assert_eq!(log2_percentile(&[0; 32], 50.0), 0);
    }
}
