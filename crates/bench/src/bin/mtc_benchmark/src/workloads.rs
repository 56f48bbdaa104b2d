//! The four workloads: what each one sends, and the closed-loop step that
//! sends one operation and times it.
//!
//! Every workload is one driver thread with one operation in flight. The
//! operation stream is a function of the seed alone; the program under test
//! sees only the generated statements.

use std::borrow::Cow;
use std::time::Instant;

use mtc_engine::{Bindings, ExecMetrics};
use mtc_tpcw::session::IdAllocator;
use mtc_tpcw::{run_interaction, Interaction, Scale, Session, Workload};
use mtc_types::{Result, Value};
use mtc_util::rng::{Rng, RngCore, SeedableRng, StdRng};
use mtcache::Connection;

use crate::deck::Deck;
use crate::deploy::{Deployment, Topology};
use crate::zipf::Zipf;

/// The data every workload runs on (5 760 customers, ~5 200 orders).
pub const SCALE: Scale = Scale {
    items: 1000,
    emulated_browsers: 20,
    seed: 42,
};

/// Session ids the fleet workload spreads over its nodes.
const FLEET_SESSIONS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Browse,
    Order,
    Hotpoint,
    FleetAdhoc,
}

/// The frozen shape of one workload. Counts are operation counts, so the
/// warm-up, the pump cadence and the counted operations repeat exactly from
/// run to run. Every count is a multiple of the pump cadence, so a slice
/// holds whole pump intervals.
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
    /// Listed in `BENCHMARK.json`, so the driver of the regression gate runs
    /// it. The gate's time limit leaves room for three workloads of 30 s;
    /// `browse` shares its layers with `order` and is run by name only.
    pub gated: bool,
    pub topology: Topology,
    /// Untimed operations before the measured phase; part of `setup_s`.
    pub warmup_ops: u64,
    /// The first this many measured operations give `backend_rtts_per_op`.
    /// About a third of what 30 s complete on the machine the benchmark was
    /// sized on; a measured phase lasts at least this many operations.
    pub counted_ops: u64,
    /// Replication is pumped inline after every this many operations.
    pub pump_every: usize,
    /// Operations per slice of the measured phase: about half a second.
    pub slice_ops: u64,
    /// Every n-th operation's latency is kept (all are timed).
    pub sample_stride: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        kind: Kind::Browse,
        name: "browse",
        why: "TPC-W Browsing mix (95% reads) on one cache node: executor-bound, replication nearly idle; the paper's best case",
        gated: false,
        topology: Topology::Single { l1_budget: 8 << 20 },
        warmup_ops: 400,
        counted_ops: 3072,
        pump_every: 16,
        slice_ops: 128,
        sample_stride: 1,
    },
    Spec {
        kind: Kind::Order,
        name: "order",
        why: "TPC-W Ordering mix (50% writes) on one cache node: forwarded DML, log read/distribute/apply, snapshot publish, invalidation",
        gated: true,
        topology: Topology::Single { l1_budget: 8 << 20 },
        warmup_ops: 256,
        counted_ops: 1536,
        pump_every: 16,
        slice_ops: 128,
        sample_stride: 1,
    },
    Spec {
        kind: Kind::Hotpoint,
        name: "hotpoint",
        why: "Zipf point/short-range parameterized reads, warm plans: per-statement plumbing (parse, plan cache, result cache) is the cost",
        gated: true,
        topology: Topology::Single { l1_budget: 8 << 20 },
        warmup_ops: 49_152,
        counted_ops: 524_288,
        pump_every: 4096,
        slice_ops: 32_768,
        sample_stride: 16,
    },
    Spec {
        kind: Kind::FleetAdhoc,
        name: "fleet_adhoc",
        why: "distinct literal-inlined statements on a 2-node fleet: every read misses the plan cache, so parse/bind/optimize/placement dominate",
        gated: true,
        topology: Topology::Fleet2,
        warmup_ops: 2048,
        counted_ops: 16_384,
        pump_every: 64,
        slice_ops: 1024,
        sample_stride: 1,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// One statement of a statement-level workload, ready to send.
pub struct Stmt {
    pub label: &'static str,
    /// Front-door session id (`fleet_adhoc`; 0 elsewhere).
    pub session: u64,
    pub sql: Cow<'static, str>,
    pub params: Bindings,
}

/// What one operation did: when it ran, and its metrics or its error.
pub struct OpOutcome {
    pub label: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub result: Result<ExecMetrics>,
}

pub const HOT_ITEM_POINT: &str = "SELECT i_title, i_cost, i_stock FROM item WHERE i_id = @id";
pub const HOT_ITEM_RANGE: &str =
    "SELECT TOP 10 i_id, i_title FROM item WHERE i_id >= @lo AND i_id < @hi";
pub const HOT_CUSTOMER_POINT: &str =
    "SELECT c_fname, c_lname, c_balance FROM customer WHERE c_id = @id";
/// Rows the `hotpoint` range template spans.
const HOT_RANGE_ROWS: i64 = 20;

/// `hotpoint` templates and their shares (percent).
pub const HOTPOINT_MIX: [(&str, f64); 3] = [
    ("item_point", 60.0),
    ("item_range", 20.0),
    ("customer_point", 20.0),
];

/// `fleet_adhoc` templates and their shares (percent).
pub const ADHOC_MIX: [(&str, f64); 5] = [
    ("item_point", 35.0),
    ("item_window", 25.0),
    ("item_author_join", 15.0),
    ("customer_window", 20.0),
    ("item_update", 5.0),
];

/// Cards per deck: a TPC-W mix has shares down to 0.09 %, and a run deals
/// several decks.
const DECK_SIZE: usize = 1000;

/// Key generators of the `hotpoint` templates.
pub struct HotKeys {
    items: Zipf,
    customers: Zipf,
}

impl HotKeys {
    pub fn new(scale: &Scale, rng: &mut impl RngCore) -> HotKeys {
        HotKeys {
            items: Zipf::new(scale.items, 1.0, rng.next_u64()),
            customers: Zipf::new(scale.customers(), 1.0, rng.next_u64()),
        }
    }

    /// One instance of the template called `label` (see [`HOTPOINT_MIX`]).
    pub fn stmt(&self, label: &'static str, scale: &Scale, rng: &mut impl Rng) -> Stmt {
        let (sql, params) = match label {
            "item_point" => (
                HOT_ITEM_POINT,
                Connection::params(&[("id", Value::Int(self.items.sample(rng)))]),
            ),
            "item_range" => {
                let last_start = (scale.items as i64 - HOT_RANGE_ROWS + 1).max(1);
                let lo = self.items.sample(rng).min(last_start);
                (
                    HOT_ITEM_RANGE,
                    Connection::params(&[
                        ("lo", Value::Int(lo)),
                        ("hi", Value::Int(lo + HOT_RANGE_ROWS)),
                    ]),
                )
            }
            "customer_point" => (
                HOT_CUSTOMER_POINT,
                Connection::params(&[("id", Value::Int(self.customers.sample(rng)))]),
            ),
            other => unreachable!("no hotpoint template `{other}`"),
        };
        Stmt {
            label,
            session: 0,
            sql: Cow::Borrowed(sql),
            params,
        }
    }
}

/// Where the sliding windows of the `fleet_adhoc` templates stand.
pub struct AdhocWindows {
    item_at: i64,
    customer_at: i64,
}

/// Returns the window start and advances it by a quarter window, wrapping
/// to the first key once the window would pass the last one.
fn slide(at: &mut i64, width: i64, keys: i64) -> i64 {
    let lo = *at;
    let next = lo + (width / 4).max(1);
    *at = if next + width > keys + 1 { 1 } else { next };
    lo
}

impl AdhocWindows {
    pub fn new(scale: &Scale, rng: &mut impl Rng) -> AdhocWindows {
        AdhocWindows {
            item_at: rng.gen_range(1..=scale.items as i64 / 2),
            customer_at: rng.gen_range(1..=scale.customers() as i64 / 2),
        }
    }

    /// One instance of the template called `label` (see [`ADHOC_MIX`]).
    /// Statements are literal-inlined. The reads over `item` carry a
    /// residual filter with a fresh literal, always true on the generated
    /// data (1 <= i_srp < 100), which makes every text distinct, as ad-hoc
    /// report queries are.
    pub fn stmt(&mut self, label: &'static str, scale: &Scale, rng: &mut impl Rng) -> Stmt {
        let items = scale.items as i64;
        let floor: f64 = rng.gen_range(0.0..1.0);
        let sql = match label {
            "item_point" => format!(
                "SELECT i_id, i_title, i_cost, i_stock FROM item \
                 WHERE i_id = {} AND i_srp >= {floor:.6}",
                rng.gen_range(1..=items)
            ),
            "item_window" => {
                let width = (items / 25).max(4);
                let lo = slide(&mut self.item_at, width, items);
                format!(
                    "SELECT i_id, i_title, i_srp FROM item \
                     WHERE i_id >= {lo} AND i_id < {} AND i_srp >= {floor:.6}",
                    lo + width
                )
            }
            "item_author_join" => {
                let width = (items / 20).max(4);
                let lo = rng.gen_range(1..=(items - width + 1).max(1));
                format!(
                    "SELECT TOP 20 i_id, i_title, a_lname FROM item, author \
                     WHERE i_a_id = a_id AND i_id >= {lo} AND i_id < {} \
                     AND i_srp >= {floor:.6} ORDER BY i_id ASC",
                    lo + width
                )
            }
            // Uncached table: overlapping windows whose texts only repeat
            // once the window has swept every customer.
            "customer_window" => {
                let width = 64;
                let lo = slide(&mut self.customer_at, width, scale.customers() as i64);
                format!(
                    "SELECT c_id, c_uname, c_balance FROM customer \
                     WHERE c_id >= {lo} AND c_id < {}",
                    lo + width
                )
            }
            "item_update" => format!(
                "UPDATE item SET i_stock = {} WHERE i_id = {}",
                rng.gen_range(10..100),
                rng.gen_range(1..=items)
            ),
            other => unreachable!("no fleet_adhoc template `{other}`"),
        };
        Stmt {
            label,
            session: rng.gen_range(0..FLEET_SESSIONS),
            sql: Cow::Owned(sql),
            params: Bindings::new(),
        }
    }
}

enum Gen {
    Tpcw {
        deck: Deck<Interaction>,
        sessions: Vec<Session>,
        next: usize,
    },
    Hotpoint {
        deck: Deck<&'static str>,
        keys: HotKeys,
    },
    Adhoc {
        deck: Deck<&'static str>,
        windows: AdhocWindows,
    },
}

/// A deployment plus the generator and connections that drive it.
pub struct Runner {
    pub spec: &'static Spec,
    pub dep: Deployment,
    /// Operations sent so far; the pump cadence counts on it.
    pub ops_done: u64,
    /// One connection per cache node (at most two).
    conns: Vec<Connection>,
    rng: StdRng,
    gen: Gen,
}

impl Runner {
    /// Builds a fresh deployment for `spec` and seeds its generator.
    pub fn new(spec: &'static Spec, scale: Scale, seed: u64) -> Result<Runner> {
        let dep = Deployment::build(scale, spec.topology)?;
        let conns = dep
            .nodes
            .iter()
            .map(|n| Connection::connect_as(n.clone(), "app"))
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = match spec.kind {
            Kind::Browse | Kind::Order => {
                let ids = IdAllocator::new(&scale);
                let sessions = (0..scale.emulated_browsers)
                    .map(|_| {
                        let c_id = rng.gen_range(1..=scale.customers() as i64);
                        Session::new(c_id, ids.clone())
                    })
                    .collect();
                let workload = if spec.kind == Kind::Browse {
                    Workload::Browsing
                } else {
                    Workload::Ordering
                };
                Gen::Tpcw {
                    deck: Deck::new(&workload.mix().weights, DECK_SIZE),
                    sessions,
                    next: 0,
                }
            }
            Kind::Hotpoint => Gen::Hotpoint {
                deck: Deck::new(&HOTPOINT_MIX, DECK_SIZE),
                keys: HotKeys::new(&scale, &mut rng),
            },
            Kind::FleetAdhoc => Gen::Adhoc {
                deck: Deck::new(&ADHOC_MIX, DECK_SIZE),
                windows: AdhocWindows::new(&scale, &mut rng),
            },
        };
        Ok(Runner {
            spec,
            dep,
            ops_done: 0,
            conns,
            rng,
            gen,
        })
    }

    /// The next statement of a statement-level workload (`hotpoint`,
    /// `fleet_adhoc`); `None` for the TPC-W workloads, whose operations are
    /// whole interactions.
    fn next_stmt(&mut self) -> Option<Stmt> {
        let scale = &self.dep.scale;
        let rng = &mut self.rng;
        match &mut self.gen {
            Gen::Tpcw { .. } => None,
            Gen::Hotpoint { deck, keys } => Some(keys.stmt(deck.deal(rng), scale, rng)),
            Gen::Adhoc { deck, windows } => Some(windows.stmt(deck.deal(rng), scale, rng)),
        }
    }

    /// Sends `stmt` the way the workload does: through the front door of a
    /// fleet, straight to the one node otherwise.
    pub fn send(&self, stmt: &Stmt) -> Result<ExecMetrics> {
        let node = match &self.dep.fleet {
            Some(fleet) => fleet.route(stmt.session)?.0,
            None => 0,
        };
        let result = self.conns[node].query_with(&stmt.sql, &stmt.params)?;
        Ok(result.metrics)
    }

    /// Generates one operation (untimed), then sends it and waits for the
    /// answer (timed). An `Err` is returned in the outcome, never unwrapped.
    pub fn step(&mut self) -> OpOutcome {
        self.ops_done += 1;
        if let Some(stmt) = self.next_stmt() {
            let start = Instant::now();
            let result = self.send(&stmt);
            let end = Instant::now();
            return OpOutcome {
                label: stmt.label,
                start,
                end,
                result,
            };
        }
        let Gen::Tpcw {
            deck,
            sessions,
            next,
        } = &mut self.gen
        else {
            unreachable!("statement workloads returned above");
        };
        let interaction = deck.deal(&mut self.rng);
        let at = *next;
        *next = (at + 1) % sessions.len();
        // Key draws happen inside `run_interaction`; they are a few RNG
        // calls against statements of tens of microseconds and up.
        let start = Instant::now();
        let result = run_interaction(
            interaction,
            &self.conns[0],
            &mut sessions[at],
            &self.dep.scale,
            &mut self.rng,
        );
        let end = Instant::now();
        OpOutcome {
            label: interaction.name(),
            start,
            end,
            result: result.map(|o| o.metrics),
        }
    }
}
