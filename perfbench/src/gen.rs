//! Seeded input generators. Every table and query sequence the program
//! receives comes from here, derived from the run's `--seed` alone.

use bench::amplab::AmplabData;
use catalyst::value::{parse_date, Value};
use catalyst::Row;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A generator for one purpose, derived from the run seed and a tag so
/// that tables and query sequences do not share a stream.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Zipf(s) over ranks `0..n`: rank 0 is the most frequent.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n.max(1))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// `count` ranks in which rank `k` appears `count · P(k)` times,
    /// rounded by largest remainder. The multiset is the same for every
    /// seed, so how many texts repeat, and the warm-up that runs each
    /// distinct text once, does not depend on the seed.
    pub fn ranks(&self, count: usize) -> Vec<usize> {
        let mut prev = 0.0;
        let want: Vec<f64> = self
            .cdf
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p * count as f64
            })
            .collect();
        let mut n: Vec<usize> = want.iter().map(|w| w.floor() as usize).collect();
        let rem = |k: usize| want[k] - n[k] as f64;
        let mut order: Vec<usize> = (0..want.len()).collect();
        order.sort_by(|&a, &b| rem(b).total_cmp(&rem(a)).then(a.cmp(&b)));
        let short = count.saturating_sub(n.iter().sum());
        for k in order.into_iter().take(short) {
            n[k] += 1;
        }
        n.iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
            .collect()
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..i + 1);
        v.swap(i, j);
    }
}

/// The AMPLab `rankings` / `uservisits` tables (Pavlo et al. schema, as
/// in the Figure 8 generator) at the given size, from `seed`.
pub fn amplab(seed: u64, pages: usize, visits: usize) -> AmplabData {
    let mut rng = rng(seed, 1);
    let rankings = (0..pages)
        .map(|i| {
            let r = rng.random_unit();
            let rank = (10_000.0 * r * r * r) as i32;
            (format!("url{i}"), rank, rng.random_range(1..100))
        })
        .collect();
    let lo = parse_date("1980-01-01").expect("valid date");
    let hi = parse_date("2010-01-01").expect("valid date");
    let uservisits = (0..visits)
        .map(|_| {
            (
                format!(
                    "{}.{}.{}.{}",
                    rng.random_range(1..240),
                    rng.random_range(0..256),
                    rng.random_range(0..256),
                    rng.random_range(0..256)
                ),
                format!("url{}", rng.random_range(0..pages)),
                rng.random_range(lo..hi),
                // Continuous, so the query 3 top-1 has no ties.
                rng.random_range(0.0..1000.0),
            )
        })
        .collect();
    AmplabData {
        rankings,
        uservisits,
        documents: Vec::new(),
    }
}

/// `n` rows of `cols` whole-number columns, column `c` drawn uniformly
/// from `0..domains[c]`, with column 0 overridden by the row index when
/// `domains[0] == 0` (a key).
pub fn long_table(seed: u64, tag: u64, n: usize, domains: &[i64]) -> Vec<Vec<i64>> {
    let mut rng = rng(seed, tag);
    (0..n)
        .map(|i| {
            domains
                .iter()
                .map(|&d| {
                    if d == 0 {
                        i as i64
                    } else {
                        rng.random_range(0..d)
                    }
                })
                .collect()
        })
        .collect()
}

/// Engine rows from whole-number columns.
pub fn long_rows(table: &[Vec<i64>]) -> Vec<Row> {
    table
        .iter()
        .map(|r| Row::new(r.iter().map(|&v| Value::Long(v)).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplab_is_deterministic_per_seed() {
        let a = amplab(7, 200, 500);
        let b = amplab(7, 200, 500);
        let c = amplab(8, 200, 500);
        assert_eq!(a.rankings, b.rankings);
        assert_eq!(a.uservisits, b.uservisits);
        assert_ne!(a.uservisits, c.uservisits);
        assert_eq!(a.rankings.len(), 200);
        assert_eq!(a.uservisits.len(), 500);
    }

    #[test]
    fn long_tables_are_deterministic_per_seed_and_tag() {
        let a = long_table(1, 5, 100, &[0, 10, 1000]);
        assert_eq!(a, long_table(1, 5, 100, &[0, 10, 1000]));
        assert_ne!(a, long_table(2, 5, 100, &[0, 10, 1000]));
        assert_ne!(a, long_table(1, 6, 100, &[0, 10, 1000]));
        assert!(a.iter().enumerate().all(|(i, r)| r[0] == i as i64));
        assert!(a.iter().all(|r| (0..10).contains(&r[1])));
    }

    #[test]
    fn zipf_ranks_follow_the_profile() {
        let z = Zipf::new(100, 1.1);
        let r = z.ranks(40);
        assert_eq!(r.len(), 40);
        assert_eq!(r, z.ranks(40));
        assert!(r.windows(2).all(|w| w[0] <= w[1]));
        let count = |k| r.iter().filter(|&&x| x == k).count();
        // P(0) is 0.234 over 100 ranks: 40 draws hold rank 0 9-10 times.
        assert!((9..=10).contains(&count(0)), "rank 0 {}", count(0));
        assert!(count(0) > count(1) && count(1) >= count(5));
        assert!(r.iter().all(|&k| k < 100));
        assert_eq!(Zipf::new(4, 1.1).ranks(0), Vec::<usize>::new());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<usize> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut rng(3, 0));
        shuffle(&mut b, &mut rng(3, 0));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
