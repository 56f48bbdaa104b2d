//! The TPC-W statement corpus: the bodies of the stored procedures in
//! `mtc_tpcw::procs::PROCEDURES`, bound with keys the way the interactions
//! bind them. The layer stepper weighs them by the mix; the audit probes
//! every read procedure.

use mtc_engine::Bindings;
use mtc_tpcw::procs::PROCEDURES;
use mtc_tpcw::schema::SUBJECTS;
use mtc_tpcw::{Interaction, Mix, Scale};
use mtc_types::{normalize_ident, Value};
use mtc_util::rng::Rng;

/// Procedure calls per interaction, as `mtc_tpcw::interactions` issues
/// them (a third of SearchResults goes to each search; four in five
/// CustomerRegistrations are a returning customer's login).
const CALLS: &[(Interaction, &[(&str, f64)])] = &[
    (Interaction::Home, &[("getName", 1.0), ("getRelated", 1.0)]),
    (Interaction::NewProducts, &[("getNewProducts", 1.0)]),
    (
        Interaction::BestSellers,
        &[("getMaxOrderId", 1.0), ("getBestSellers", 1.0)],
    ),
    (Interaction::ProductDetail, &[("getBook", 1.0)]),
    (Interaction::SearchRequest, &[("getRelated", 1.0)]),
    (
        Interaction::SearchResults,
        &[
            ("doSubjectSearch", 1.0 / 3.0),
            ("doTitleSearch", 1.0 / 3.0),
            ("doAuthorSearch", 1.0 / 3.0),
        ],
    ),
    (Interaction::ShoppingCart, &[("getCart", 1.0)]),
    (
        Interaction::CustomerRegistration,
        &[("getCustomer", 0.8), ("updateCustomerLogin", 0.8)],
    ),
    (
        Interaction::BuyRequest,
        &[("getCustomer", 1.0), ("getCart", 1.0)],
    ),
    (
        Interaction::BuyConfirm,
        &[("getCart", 1.0), ("updateItemStock", 2.0)],
    ),
    (Interaction::OrderInquiry, &[("getPassword", 1.0)]),
    (
        Interaction::OrderDisplay,
        &[
            ("getMostRecentOrderId", 1.0),
            ("getMostRecentOrderDetails", 1.0),
            ("getMostRecentOrderLines", 1.0),
        ],
    ),
    (Interaction::AdminRequest, &[("getAdminProduct", 1.0)]),
    (
        Interaction::AdminConfirm,
        &[("getAdminProduct", 1.0), ("adminUpdate", 1.0)],
    ),
];

/// A stored procedure of the kit: name, parameter names, body.
pub type Proc = (&'static str, &'static [&'static str], &'static str);

pub fn is_read(proc: &Proc) -> bool {
    proc.2.trim_start().starts_with("SELECT")
}

/// The procedures `mix` calls with their expected calls per interaction,
/// in `PROCEDURES` order. INSERT and DELETE bodies are left out: repeating
/// them needs fresh keys, and UPDATE covers the forwarded-DML path.
pub fn weighted_procs(mix: &Mix) -> Vec<(&'static Proc, f64)> {
    let total: f64 = mix.weights.iter().map(|(_, w)| w).sum();
    PROCEDURES
        .iter()
        .filter(|p| is_read(p) || p.2.starts_with("UPDATE"))
        .filter_map(|proc| {
            let calls: f64 = mix
                .weights
                .iter()
                .map(|(interaction, weight)| {
                    let per_interaction: f64 = CALLS
                        .iter()
                        .filter(|(i, _)| i == interaction)
                        .flat_map(|(_, procs)| procs.iter())
                        .filter(|(name, _)| *name == proc.0)
                        .map(|(_, n)| n)
                        .sum();
                    weight / total * per_interaction
                })
                .sum();
            (calls > 0.0).then_some((proc, calls))
        })
        .collect()
}

/// Binds `proc`'s parameters by name with in-range keys drawn from `rng`.
pub fn bind(proc: &Proc, scale: &Scale, rng: &mut impl Rng) -> Bindings {
    let customer = rng.gen_range(1..=scale.customers() as i64);
    proc.1
        .iter()
        .map(|&param| {
            let value = match param {
                "c_id" => Value::Int(customer),
                "uname" => Value::str(format!("user{customer}")),
                "i_id" => Value::Int(rng.gen_range(1..=scale.items as i64)),
                "subject" => Value::str(SUBJECTS[rng.gen_range(0..SUBJECTS.len())]),
                "title" => Value::str(["%rust%", "%ocean%", "%ember%"][rng.gen_range(0..3usize)]),
                "lname" => Value::str(format!("alast{}%", rng.gen_range(0..100))),
                "o_id" => Value::Int(rng.gen_range(1..=scale.orders() as i64)),
                "o_threshold" => Value::Int((scale.orders() as i64 - 3333).max(0)),
                // Carts the run created start at this id.
                "sc_id" => Value::Int(1_000_000 + rng.gen_range(0..16i64)),
                "qty" => Value::Int(1),
                "cost" | "total" => Value::Float(rng.gen_range(1.0..100.0)),
                "now" => Value::Timestamp(2_000_000),
                other => unreachable!("no key generator for procedure parameter `{other}`"),
            };
            (normalize_ident(param), value)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_tpcw::Workload;
    use mtc_util::rng::{SeedableRng, StdRng};

    #[test]
    fn every_called_procedure_exists_and_every_read_or_update_binds() {
        for (_, procs) in CALLS {
            for (name, _) in *procs {
                assert!(PROCEDURES.iter().any(|p| p.0 == *name), "{name}");
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        for proc in PROCEDURES {
            if is_read(proc) || proc.2.starts_with("UPDATE") {
                assert_eq!(bind(proc, &Scale::tiny(), &mut rng).len(), proc.1.len());
            }
        }
    }

    #[test]
    fn browsing_is_read_heavy_and_ordering_writes() {
        let weight = |w: Workload, name: &str| {
            weighted_procs(&w.mix())
                .iter()
                .find(|(p, _)| p.0 == name)
                .map_or(0.0, |(_, calls)| *calls)
        };
        assert!(weight(Workload::Browsing, "getBestSellers") > 0.10);
        assert!(weight(Workload::Ordering, "getBestSellers") < 0.01);
        assert!(
            weight(Workload::Ordering, "updateItemStock")
                > 10.0 * weight(Workload::Browsing, "updateItemStock")
        );
        // getRelated is called by both Home and SearchRequest.
        assert!((weight(Workload::Browsing, "getRelated") - 0.41).abs() < 0.01);
    }
}
