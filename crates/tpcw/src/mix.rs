//! The three TPC-W workload mixes, plus the skewed / phase-shifting
//! workloads the adaptive-advisor experiment drives: item-key
//! distributions ([`KeyDist`]) and multi-phase schedules
//! ([`PhaseSchedule`]) that move the working set under the cache.

use mtc_util::rng::Rng;

use crate::interactions::Interaction;

/// A workload mix: relative frequency of each interaction type.
#[derive(Debug, Clone)]
pub struct Mix {
    pub name: &'static str,
    /// (interaction, weight in percent). Weights sum to ~100.
    pub weights: Vec<(Interaction, f64)>,
}

/// The three benchmark workloads (§6.1.1): "a workload simply specifies the
/// relative frequency of the different request types".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// 95% browse / 5% order.
    Browsing,
    /// 80% browse / 20% order — "the main workload of the benchmark".
    Shopping,
    /// 50% browse / 50% order.
    Ordering,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Browsing, Workload::Shopping, Workload::Ordering];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Browsing => "Browsing",
            Workload::Shopping => "Shopping",
            Workload::Ordering => "Ordering",
        }
    }

    /// The interaction mix (weights from the TPC-W specification).
    pub fn mix(self) -> Mix {
        use Interaction::*;
        let weights = match self {
            Workload::Browsing => vec![
                (Home, 29.00),
                (NewProducts, 11.00),
                (BestSellers, 11.00),
                (ProductDetail, 21.00),
                (SearchRequest, 12.00),
                (SearchResults, 11.00),
                (ShoppingCart, 2.00),
                (CustomerRegistration, 0.82),
                (BuyRequest, 0.75),
                (BuyConfirm, 0.69),
                (OrderInquiry, 0.30),
                (OrderDisplay, 0.25),
                (AdminRequest, 0.10),
                (AdminConfirm, 0.09),
            ],
            Workload::Shopping => vec![
                (Home, 16.00),
                (NewProducts, 5.00),
                (BestSellers, 5.00),
                (ProductDetail, 17.00),
                (SearchRequest, 20.00),
                (SearchResults, 17.00),
                (ShoppingCart, 11.60),
                (CustomerRegistration, 3.00),
                (BuyRequest, 2.60),
                (BuyConfirm, 1.20),
                (OrderInquiry, 0.75),
                (OrderDisplay, 0.66),
                (AdminRequest, 0.10),
                (AdminConfirm, 0.09),
            ],
            Workload::Ordering => vec![
                (Home, 9.12),
                (NewProducts, 0.46),
                (BestSellers, 0.46),
                (ProductDetail, 12.35),
                (SearchRequest, 14.53),
                (SearchResults, 13.08),
                (ShoppingCart, 13.53),
                (CustomerRegistration, 12.86),
                (BuyRequest, 12.73),
                (BuyConfirm, 10.18),
                (OrderInquiry, 0.25),
                (OrderDisplay, 0.22),
                (AdminRequest, 0.12),
                (AdminConfirm, 0.11),
            ],
        };
        Mix {
            name: self.name(),
            weights,
        }
    }
}

impl Mix {
    /// Samples one interaction according to the weights.
    pub fn sample(&self, rng: &mut impl Rng) -> Interaction {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        for (interaction, w) in &self.weights {
            if x < *w {
                return *interaction;
            }
            x -= w;
        }
        self.weights.last().expect("nonempty mix").0
    }

    /// Fraction of interactions in the Browse activity class.
    pub fn browse_fraction(&self) -> f64 {
        let total: f64 = self.weights.iter().map(|(_, w)| w).sum();
        let browse: f64 = self
            .weights
            .iter()
            .filter(|(i, _)| i.is_browse_class())
            .map(|(_, w)| w)
            .sum();
        browse / total
    }
}

/// How interactions draw their random item key from `1..=items`.
///
/// TPC-W proper draws uniformly; real storefront traffic is skewed. The
/// advisor experiments use these to concentrate (and then *move*) the hot
/// set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// The benchmark default: every item equally likely.
    Uniform,
    /// Zipf-like skew via a log-uniform draw (`k = n^u`, `u ~ U[0,1)`):
    /// density ∝ 1/k, so low keys are drawn orders of magnitude more often
    /// than high ones. `offset` rotates the hot end to a different region
    /// of the keyspace (fraction of `n`, wrapping) — shifting `offset`
    /// between phases moves the working set without changing its shape.
    Zipf { offset: f64 },
}

impl KeyDist {
    /// Draws one item key in `1..=n`.
    pub fn sample(&self, n: i64, rng: &mut impl Rng) -> i64 {
        let n = n.max(1);
        match *self {
            KeyDist::Uniform => rng.gen_range(1..=n),
            KeyDist::Zipf { offset } => {
                let u = rng.gen_range(0.0..1.0);
                let k = (n as f64).powf(u) as i64; // 1..=n, mass at the low end
                let shift = (offset * n as f64) as i64;
                (k - 1 + shift).rem_euclid(n) + 1
            }
        }
    }
}

impl Mix {
    /// Account-heavy mix: the working set shifts from the item catalog to
    /// customer/account reads (login, order inquiry, buy pages) — traffic
    /// the static TPC-W cache configuration does not cover, so a frozen
    /// cache pays a backend round trip per page until an advisor reacts.
    /// Best-seller listings stay in the mix as the shared join fragment.
    pub fn account_heavy() -> Mix {
        use Interaction::*;
        Mix {
            name: "AccountHeavy",
            weights: vec![
                (OrderInquiry, 36.00),
                (CustomerRegistration, 22.00),
                (BuyRequest, 18.00),
                (Home, 12.00),
                (BestSellers, 8.00),
                (ProductDetail, 4.00),
            ],
        }
    }
}

/// One phase of a shifting workload: a mix, an item-key distribution and a
/// duration in interactions.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub mix: Mix,
    pub keys: KeyDist,
    pub interactions: usize,
}

/// A workload as a sequence of phases; interaction index `i` belongs to the
/// phase whose cumulative span contains it (clamping to the last phase).
#[derive(Debug, Clone)]
pub struct PhaseSchedule {
    pub phases: Vec<Phase>,
}

impl PhaseSchedule {
    /// Total scheduled interactions.
    pub fn total(&self) -> usize {
        self.phases.iter().map(|p| p.interactions).sum()
    }

    /// The phase interaction `i` falls in, and `i`'s offset within it.
    pub fn phase_at(&self, i: usize) -> (usize, &Phase) {
        let mut at = i;
        for (idx, p) in self.phases.iter().enumerate() {
            if at < p.interactions || idx == self.phases.len() - 1 {
                return (idx, p);
            }
            at -= p.interactions;
        }
        unreachable!("schedule has at least one phase")
    }

    /// The advisor experiment's shifting working set: a Zipf-skewed
    /// item-browsing phase (fully covered by the static TPC-W cache
    /// configuration), then an abrupt shift to account-heavy traffic the
    /// static configuration never caches. The shifted phase draws keys
    /// uniformly across the customer base: per-statement result caching
    /// cannot absorb the spread (every key is cold again after the next
    /// account write invalidates the table), but a table-level cached view
    /// — exactly what the advisor deploys — covers all of it.
    pub fn shifting_working_set(per_phase: usize) -> PhaseSchedule {
        PhaseSchedule {
            phases: vec![
                Phase {
                    name: "browse-items",
                    mix: Workload::Browsing.mix(),
                    keys: KeyDist::Zipf { offset: 0.0 },
                    interactions: per_phase,
                },
                Phase {
                    name: "account-shift",
                    mix: Mix::account_heavy(),
                    keys: KeyDist::Uniform,
                    interactions: per_phase,
                },
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_util::rng::StdRng;
    use mtc_util::rng::SeedableRng;

    /// §6.1.1's table: Browsing 95/5, Shopping 80/20, Ordering 50/50.
    #[test]
    fn browse_order_split_matches_paper_table() {
        assert!((Workload::Browsing.mix().browse_fraction() - 0.95).abs() < 0.005);
        assert!((Workload::Shopping.mix().browse_fraction() - 0.80).abs() < 0.005);
        assert!((Workload::Ordering.mix().browse_fraction() - 0.50).abs() < 0.005);
    }

    #[test]
    fn sampling_tracks_weights() {
        let mix = Workload::Shopping.mix();
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let mut home = 0usize;
        for _ in 0..n {
            if mix.sample(&mut rng) == Interaction::Home {
                home += 1;
            }
        }
        let frac = home as f64 / n as f64;
        assert!((frac - 0.16).abs() < 0.01, "Home ≈16% of Shopping: {frac}");
    }

    #[test]
    fn all_fourteen_interactions_present_in_every_mix() {
        for w in Workload::ALL {
            assert_eq!(w.mix().weights.len(), 14, "{}", w.name());
        }
    }

    #[test]
    fn key_dists_stay_in_range_and_skew_where_claimed() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 1000i64;
        for dist in [
            KeyDist::Uniform,
            KeyDist::Zipf { offset: 0.0 },
            KeyDist::Zipf { offset: 0.5 },
        ] {
            for _ in 0..5000 {
                let k = dist.sample(n, &mut rng);
                assert!((1..=n).contains(&k), "{dist:?} drew {k}");
            }
        }
        // Zipf with offset 0: the bottom decile dominates.
        let zipf = KeyDist::Zipf { offset: 0.0 };
        let low = (0..5000)
            .filter(|_| zipf.sample(n, &mut rng) <= n / 10)
            .count();
        assert!(low > 3000, "Zipf bottom decile got {low}/5000 draws");
        // Shifting the offset moves the hot region off the bottom decile.
        let shifted = KeyDist::Zipf { offset: 0.5 };
        let low_shifted = (0..5000)
            .filter(|_| shifted.sample(n, &mut rng) <= n / 10)
            .count();
        assert!(
            low_shifted < low / 4,
            "offset must move the hot set: {low_shifted} vs {low}"
        );
    }

    #[test]
    fn phase_schedules_partition_interactions() {
        let sched = PhaseSchedule::shifting_working_set(100);
        assert_eq!(sched.total(), 200);
        assert_eq!(sched.phase_at(0).1.name, "browse-items");
        assert_eq!(sched.phase_at(99).1.name, "browse-items");
        assert_eq!(sched.phase_at(100).1.name, "account-shift");
        // Clamps to the last phase past the end.
        assert_eq!(sched.phase_at(10_000).1.name, "account-shift");
        // The account-heavy mix is all Order-class plus a browse tail.
        let acct = Mix::account_heavy();
        assert!(acct.browse_fraction() < 0.30, "{}", acct.browse_fraction());
    }
}
