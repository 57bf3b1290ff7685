//! Summary statistics and lookup accounting shared by every workload.

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Arithmetic mean (0 when there are no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median by linear interpolation between the two middle values (0 when
/// there are no samples).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A tail percentile chosen so that at least [`MIN_BEYOND`] samples lie
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The nearest-rank value.
    pub value: f64,
    /// The percentile actually reported, as a fraction (at most the one
    /// asked for).
    pub quantile: f64,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
    /// Mean of the samples ranked beyond it: unlike the nearest-rank
    /// value it moves smoothly when latencies fall on a few discrete
    /// levels, as simulated ones do.
    pub beyond_mean: f64,
    /// Samples in total.
    pub samples: usize,
}

/// The highest nearest-rank percentile, at most `max_permille` thousandths,
/// that leaves at least [`MIN_BEYOND`] samples ranked beyond it. With
/// `MIN_BEYOND` or fewer samples no such rank exists and the minimum is
/// returned with `beyond` telling how many samples lie past it.
pub fn tail(values: &[f64], max_permille: usize) -> Tail {
    let n = values.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            quantile: 0.0,
            beyond: 0,
            beyond_mean: 0.0,
            samples: 0,
        };
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let wanted = (max_permille * n).div_ceil(1000).clamp(1, n);
    let rank = wanted.min(n.saturating_sub(MIN_BEYOND)).max(1);
    let beyond = &v[rank..];
    Tail {
        value: v[rank - 1],
        quantile: rank as f64 / n as f64,
        beyond: beyond.len(),
        beyond_mean: mean(if beyond.is_empty() {
            &v[rank - 1..]
        } else {
            beyond
        }),
        samples: n,
    }
}

/// What became of one issued lookup when it was harvested.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// No answer arrived.
    Missing,
    /// An answer arrived `latency_s` after issue naming `owner`.
    Got { owner: String, latency_s: f64 },
}

/// Lookup outcomes counted against the number issued.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Accounting {
    /// Lookups issued.
    pub issued: usize,
    /// Issued lookups with no answer, or an answer later than the deadline.
    pub unanswered: usize,
    /// Answered in time, but not by the key's correct owner.
    pub wrong_owner: usize,
    /// Latencies (s) of lookups answered in time, right or wrong.
    pub latencies: Vec<f64>,
}

impl Accounting {
    /// Records one lookup: `expected` is the correct owner at harvest time.
    pub fn record(&mut self, answer: &Answer, expected: Option<&str>, deadline_s: f64) {
        self.issued += 1;
        match answer {
            Answer::Got { owner, latency_s } if *latency_s <= deadline_s => {
                self.latencies.push(*latency_s);
                if expected != Some(owner.as_str()) {
                    self.wrong_owner += 1;
                }
            }
            _ => self.unanswered += 1,
        }
    }

    /// Failed lookups: unanswered (or late) plus wrong owner.
    pub fn failed(&self) -> usize {
        self.unanswered + self.wrong_owner
    }

    /// Failed lookups over issued (0 when none were issued).
    pub fn fail_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.failed() as f64 / self.issued as f64
        }
    }
}

/// Share of a same-key probe round that agrees with the round's majority
/// answer; unanswered probes count against it. 1.0 for an empty round.
pub fn consistency(answers: &[Option<String>]) -> f64 {
    if answers.is_empty() {
        return 1.0;
    }
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for owner in answers.iter().flatten() {
        match counts.iter_mut().find(|(o, _)| *o == owner.as_str()) {
            Some((_, c)) => *c += 1,
            None => counts.push((owner.as_str(), 1)),
        }
    }
    let majority = counts.iter().map(|(_, c)| *c).max().unwrap_or(0);
    majority as f64 / answers.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_p99_once_enough_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v, 990);
        assert_eq!(t.value, 1980.0);
        assert_eq!(t.quantile, 0.99);
        assert_eq!(t.beyond, 20);
        assert_eq!(t.beyond_mean, 1990.5);
        assert_eq!(t.samples, 2000);
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=300).map(f64::from).collect();
        let t = tail(&v, 990);
        assert_eq!(t.beyond, MIN_BEYOND);
        assert_eq!(t.value, 290.0);
        assert!((t.quantile - 290.0 / 300.0).abs() < 1e-12);
        // Exactly at the threshold: p99 of 1000 leaves exactly ten beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 990);
        assert_eq!((t.value, t.beyond, t.beyond_mean), (990.0, 10, 995.5));
    }

    #[test]
    fn tail_of_a_tiny_sample_reports_what_lies_beyond() {
        let t = tail(&[5.0, 1.0, 3.0], 990);
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 2, 3));
        assert_eq!(t.beyond_mean, 4.0);
        assert_eq!(tail(&[2.0], 990).beyond_mean, 2.0);
        assert_eq!(tail(&[], 990).samples, 0);
    }

    #[test]
    fn unanswered_late_and_wrong_owner_all_count_over_issued() {
        let mut a = Accounting::default();
        let got = |owner: &str, latency_s| Answer::Got {
            owner: owner.to_string(),
            latency_s,
        };
        a.record(&got("n1", 0.2), Some("n1"), 5.0);
        a.record(&got("n2", 0.3), Some("n1"), 5.0);
        a.record(&Answer::Missing, Some("n1"), 5.0);
        a.record(&got("n1", 6.0), Some("n1"), 5.0);
        a.record(&got("n1", 0.1), None, 5.0);
        assert_eq!(a.issued, 5);
        assert_eq!(a.unanswered, 2);
        assert_eq!(a.wrong_owner, 2);
        assert_eq!(a.failed(), 4);
        assert!((a.fail_rate() - 0.8).abs() < 1e-12);
        assert_eq!(a.latencies, vec![0.2, 0.3, 0.1]);
        assert_eq!(Accounting::default().fail_rate(), 0.0);
    }

    #[test]
    fn consistency_is_the_majority_share_of_issued_probes() {
        let s = |x: &str| Some(x.to_string());
        assert_eq!(consistency(&[s("a"), s("a"), s("b"), None]), 0.5);
        assert_eq!(consistency(&[s("a"), s("a")]), 1.0);
        assert_eq!(consistency(&[None, None]), 0.0);
        assert_eq!(consistency(&[]), 1.0);
    }
}
