#!/usr/bin/env sh
# Tier-1 verification (ROADMAP.md): build + full test suite, the benchmark
# package's own tests, then the explicit experiment smoke hooks and the
# artifact-freshness gate. The
# workspace sets `[workspace.lints.rust] warnings = "deny"`, so the
# deny-warnings check is a clean build: any warning anywhere fails the build
# step itself.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release (warnings are errors workspace-wide)"
cargo build --release

echo "==> cargo test -q (root package: integration + property suites)"
cargo test -q

echo "==> cargo test -q --workspace (every crate's unit tests)"
cargo test -q --workspace

# mtc_benchmark is a workspace of its own, so neither command above compiles
# it: a changed `pub` signature it uses would otherwise only surface when the
# benchmark itself is run. Its unit tests also keep BENCHMARK.json equal to
# the metric and workload tables in its source.
echo "==> cargo test -q --manifest-path crates/bench/src/bin/mtc_benchmark/Cargo.toml (benchmark package)"
cargo test -q --manifest-path crates/bench/src/bin/mtc_benchmark/Cargo.toml

echo "==> cargo test -q --test fleet_smoke (fleet floors vs committed BENCH_fleet.json)"
cargo test -q --test fleet_smoke

echo "==> cargo test -q --test placement_smoke (placement floors vs committed BENCH_placement.json)"
cargo test -q --test placement_smoke

echo "==> cargo test -q --test advisor_smoke (adaptive-advisor floors vs committed BENCH_advisor.json)"
cargo test -q --test advisor_smoke

# Artifact freshness: the bit-reproducible BENCH_*.json (paper, resultcache,
# fleet, placement, advisor — bench_all.sh holds the list) and the
# EXPERIMENTS.md that exp_paper generates beside BENCH_paper.json are
# regenerated into a scratch directory and must equal the committed files
# byte for byte, so a change that moves a modeled number commits the moved
# artifact and the report never drifts from it. BENCH_concurrency.json
# carries wall-clock readings: it is neither compared nor rewritten by a
# bare `scripts/bench_all.sh` (only `scripts/bench_all.sh concurrency`
# regenerates it).
echo "==> scripts/bench_all.sh --check (committed BENCH_*.json and EXPERIMENTS.md are what HEAD generates)"
scripts/bench_all.sh --check

# Structural sharing between consecutive snapshots, pinned by pointer
# identity: a change that reintroduces a per-publication copy of the cache
# database fails here, on any machine, without a timer.
echo "==> cargo test -q --test snapshot_sharing (a publication copies only what its batch wrote)"
cargo test -q --test snapshot_sharing

# One replication cursor per cache node, pinned by a seeded property: under
# random drops, duplicates, delays, corrupt frames and crashes, every view
# equals the backend replayed to its node's watermark after every pump, and
# the watermark never regresses. A change that lets one view of a node run
# ahead of another fails here, on any machine, without a timer.
echo "==> cargo test -q -p mtc-replication --lib prefix_consistency (every node snapshot is the backend at one LSN)"
cargo test -q -p mtc-replication --lib prefix_consistency

# Prepare once, run many, pinned by counters: a recurring text is parsed
# once per server and planned once (SELECT and DML alike), a procedure body
# is shared behind one Arc, and a result a write has overtaken leaves the
# result cache at the write. A change that reintroduces a parse or an
# optimize per execution fails here, on any machine, without a timer.
echo "==> cargo test -q --test prepared_layer (a recurring statement is prepared and planned once)"
cargo test -q --test prepared_layer

# Plan a shape once, pinned by counters: ad-hoc statements that differ only
# in predicate literals are one template — one preparation and one plan on
# the node that receives them, one plan per shipped fragment shape on the
# peer and the backend — and what must not be lifted keeps its own template.
# A change that keys any cache on the literal text again fails here.
echo "==> cargo test -q --test auto_parameterization (ad-hoc statements are planned once per shape, on every tier)"
cargo test -q --test auto_parameterization

# Warm reads build only the columns they return, pinned by a counter
# (`ExecMetrics::cells_built`): a cv_item point read builds 3 of 11
# columns, hotpoint's TOP 10 range 2, an L1 hit none, a subject search's
# index seek its projected and residual columns, and the view match's
# Project(Project(seek)) runs as one operator. A change that builds whole
# rows again, or unfolds the projection chain, fails here, on any machine,
# without a timer.
echo "==> cargo test -q --test pruned_leaves (an access path builds only the columns a read needs)"
cargo test -q --test pruned_leaves

# Same plans, checked byte for byte: every statement of the corpus (TPC-W
# procedures, the benchmark's read templates, the placement fixtures' shapes,
# LEFT JOINs over each) is planned two-site and over a 3-peer fleet under
# three option sets, and each plan's EXPLAIN text and the exact bits of its
# estimated cost and rows must equal tests/golden/plans.txt. An optimizer
# refactor that changes any chosen plan or estimate fails here, on any
# machine, without a timer.
echo "==> cargo test -q --test plan_golden (every corpus plan equals tests/golden/plans.txt)"
cargo test -q --test plan_golden

# Multi-site planning overhead, pinned by counters: one optimize of a
# 3-peer join probes each shadow leaf against the peers' views once, a second
# optimize on the same placement env probes none, and the placement pass
# visits the same number of nodes per optimize as it did when the guard was
# recorded (two-site 18, three peers 60). A change that re-probes a leaf or
# places a candidate twice fails here, on any machine, without a timer.
echo "==> cargo test -q -p mtc-engine --lib multi_site_planning (placement probes each leaf once, visits a pinned count)"
cargo test -q -p mtc-engine --lib multi_site_planning

# A currency bound is checked at every site that would read a cached view,
# pinned by a manual clock and counters: a bounded read whose fragment is
# placed on a peer past the bound is refused by that peer (its
# `freshness_fallbacks` rises by one, no peer call serves it) and answered
# with the backend's rows. A change that lets a stale peer answer a bounded
# fragment from its view fails here, on any machine, without a timer. The
# placing node probes its own L1 once: its backend fallback continues past
# that probe, so its result cache's `misses` (and the key's re-miss count,
# the admission benefit) rises by exactly one for the one shipped fragment.
echo "==> cargo test -q --test placement_fleet a_bounded_read_placed_on_a_stale_peer_is_served_by_the_backend (a stale peer refuses a bounded fragment)"
cargo test -q --test placement_fleet a_bounded_read_placed_on_a_stale_peer_is_served_by_the_backend

# Answers cross tiers as shared column batches, pinned by pointer identity:
# two L1 hits of one key share the admitted entry's columns, an L2 hit
# promoted into L1 shares the L2 entry's, a single-flight follower gets the
# leader's, and L1 and L2 keep one dense batch sized exactly to its rows. A
# change that copies rows on a hit, a promotion or a follower, or that keeps
# an executor batch's spare capacity in a cache, fails here, on any machine,
# without a timer.
echo "==> cargo test -q --test answer_sharing (a cached answer is shared, never copied)"
cargo test -q --test answer_sharing

# A cached answer keeps its lineage across tiers, and one comparison decides
# currency for a node and an entry alike, pinned by a manual clock and
# counters: an answer promoted from the L2 into another node's L1 still
# ages from its fetch instant and is released by the first write past its
# fetch LSN, and a bound serves a node's views and a cached answer at
# staleness equal to the bound and refuses both one millisecond later. A
# change that restamps a promotion, or that moves the bound's edge for
# either tier, fails here, on any machine, without a timer.
echo "==> cargo test -q --test currency_lineage (a cached answer keeps its lineage; one bound test for every tier)"
cargo test -q --test currency_lineage

# What a write invalidates is the transaction it committed, pinned by
# answers and counters: a node without views hears every replicated
# transaction, a node reads its own forwarded write at once through a
# backend materialized view and through a nested forwarded EXEC, a
# forwarded write that changes no row releases nothing (`invalidations`
# stays 0 and the entry still serves), and a node's first view makes no
# invalidation sink miss a transaction. A cache that derives invalidation
# from statement text, or a hub that skips view-less nodes, fails here, on
# any machine, without a timer.
echo "==> cargo test -q --test result_cache_semantics (a write invalidates by what it committed, on every node)"
cargo test -q --test result_cache_semantics

# One fleet-wide result cache, pinned by counters: a shipped answer is the
# backend's, so it is stamped with and validated against the backend's
# catalog version. Node B, which holds a cached view node A does not, serves
# A's remote read from the shared L2 with 0 round trips and the L2's `hits`
# rises by one. A cache that validates a shipped answer against the probing
# node's own catalog misses here, on any machine, without a timer.
echo "==> cargo test -q --test fleet_semantics l2_serves_nodes_that_hold_different_cached_views (the L2 serves every node whatever its views)"
cargo test -q --test fleet_semantics l2_serves_nodes_that_hold_different_cached_views

# Backend DDL reaches a cached answer: after a warm cache read, a DROP TABLE
# run on the backend directly makes the cache fail with `catalog` as the
# backend does, and the table re-created empty reads empty on both. A cache
# that keeps serving the dropped table's rows fails here, on any machine.
echo "==> cargo test -q --test result_cache_semantics a_backend_drop_table_reaches_a_warm_cached_read (backend DDL flushes cached answers)"
cargo test -q --test result_cache_semantics a_backend_drop_table_reaches_a_warm_cached_read

# Snapshot readers never block on a faulted apply, run once in a release
# build: only there could the writer's churn finish before any reader
# thread was scheduled (the churn now waits for all eight readers), and
# the debug build of the steps above never showed it.
echo "==> cargo test --release -q --test concurrency_smoke (readers during faulted churn, release build)"
cargo test --release -q --test concurrency_smoke

# A string literal means the same text on every tier: a non-ASCII pattern
# shipped from a cache node to the backend selects what it selects on the
# backend. A lexer that copies a literal byte by byte mangles it once on the
# cache and again on the backend, and fails here, on any machine.
echo "==> cargo test -q --test transparency a_non_ascii_literal_selects_the_same_rows_on_every_tier (a literal's text survives shipping)"
cargo test -q --test transparency a_non_ascii_literal_selects_the_same_rows_on_every_tier

# Only `dbo` grants, on every tier: a principal that grants itself access is
# refused with the same error kind by the backend and by a cache server, and
# the refused grant gives it nothing, while `dbo` still grants on both. A
# GRANT arm that skips the grantor's authority on either tier fails here, on
# any machine.
echo "==> cargo test -q --test transparency only_dbo_grants_on_the_backend_and_on_a_cache (GRANT needs dbo on every tier)"
cargo test -q --test transparency only_dbo_grants_on_the_backend_and_on_a_cache

# A grant made through a cache is the backend's grant: the cache forwards it
# and the backend's dbo check decides, so after a grant sent through the
# cache alone the backend serves the grantee's read too. A cache that keeps
# a grant in its own shadow catalog fails here, on any machine.
echo "==> cargo test -q --test transparency a_grant_through_a_cache_is_the_backend_s_grant (GRANT through a cache reaches the backend)"
cargo test -q --test transparency a_grant_through_a_cache_is_the_backend_s_grant

# Unary minus overflows like the binary operators: `-@x` with `@x` the
# smallest integer is the same execution error on the backend and on a cache
# that answers from its own cached view. An evaluator that negates with a
# bare `-` panics here in a debug build and returns i64::MIN in a release
# one, on any machine.
echo "==> cargo test -q --test transparency negating_the_smallest_integer_is_the_same_overflow_error_on_every_tier (-i64::MIN is an overflow error)"
cargo test -q --test transparency negating_the_smallest_integer_is_the_same_overflow_error_on_every_tier

# The dialect census, and the whole transparency suite with it: an
# exhaustive match over `Statement` lists every statement kind, and each
# runs as `dbo` and as `app` on a fresh backend, cache server and fleet node
# with the same rows or error kind, the same read afterwards and the same
# backend state; a backend GRANT made after a cache was created holds for
# the writes it forwards, EXPLAIN of a forwarded UPDATE is the backend's, and
# CREATE INDEX through a cache reaches its shadow and rebuilds its plans. A
# new `Statement` variant does not compile until the census lists it, and a
# cache that runs, refuses or authorizes a statement the backend owns fails
# here, on any machine.
echo "==> cargo test -q --test transparency (the dialect census: every statement kind means the same on every tier)"
cargo test -q --test transparency

# BETWEEN is its definition, pinned by answers and counters: the parser
# lowers `x BETWEEN a AND b` to `x >= a AND x <= b` (`x < a OR x > b` when
# negated). So a NULL bound follows three-valued logic on the backend and
# on a cache alike, a BETWEEN seek is bounded on both sides and builds the
# cells its comparisons build, and a BETWEEN over a cached range view is
# answered locally under the plan-cache entry of its `>=`/`<=` spelling. A
# BETWEEN that some layer below the parser handles on its own fails here,
# on any machine, without a timer.
echo "==> cargo test -q --test transparency --test pruned_leaves --test plan_cache_semantics between (BETWEEN means >= AND <= on every layer)"
cargo test -q --test transparency --test pruned_leaves --test plan_cache_semantics between

# What a warm read allocates, pinned by a counting allocator on the calling
# thread: on TPC-W with the paper's cache, hotpoint's item point read makes
# at most 14 allocations (its batch and its row, not its setup) and its
# customer L1 hit at most 4. A change that builds a key string per probe, a
# row per seek bound, a boxed range iterator or a slot vector per execution
# fails here, on any machine, without a timer.
echo "==> cargo test -q --test warm_read_allocs (a warm read allocates its answer and little else)"
cargo test -q --test warm_read_allocs

# Hash joins hash the way GROUP BY and DISTINCT do, pinned by a counter and
# by answers: a warm cv_item x cv_author hash join on TPC-W tiny makes at
# most 70 allocations (a key built per build and probe row made 207); an
# inclusive range seek builds only the column it returns, its `>=` and `<=`
# not re-checked (11 cells for 11 rows, not 22), while a seek with no low
# bound keeps its `<=` on a nullable key, whose NULL ranks first; and every
# join kind over NULL keys on both sides, an INT key against integral
# FLOATs, duplicate build keys, a two-column key and a non-equi residual
# answers as the oracle does, ordered and in the join's own order. A join
# that builds a key per row, a seek that re-checks its own bounds or
# returns a NULL key, or a keyed table that loses build order or matches a
# NULL key fails here, on any machine, without a timer.
echo "==> cargo test -q --test warm_read_allocs --test pruned_leaves --test equivalence_prop -- hash_join range_seek nullable_key (one keyed table; a range seek trusts its bounds)"
cargo test -q --test warm_read_allocs --test pruned_leaves --test equivalence_prop -- hash_join range_seek nullable_key

echo "verify: OK"
