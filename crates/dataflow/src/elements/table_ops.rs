//! Elements bridging the dataflow graph and stored tables: insert, delete,
//! per-event aggregation probes, and materialized table aggregates.
//!
//! # Incremental aggregation
//!
//! [`TableAgg`] is the delta protocol's canonical consumer (see the
//! `p2_table` module docs): instead of recomputing `Table::aggregate` over
//! the whole table on every poke, it subscribes to the table's exact
//! `Insert`/`Delete`/`Expire`/`Evict` delta stream and maintains per-group
//! state incrementally — O(1) per delta for `count`/`sum`/`avg`, with
//! `min`/`max` falling back to a single batched group rescan only when the
//! current extremum is retracted. Emission timing and values match the
//! recompute-per-poke semantics (including the PR 3 vanished-group
//! retraction contract), which is what keeps the 100-node golden event
//! pins bit-for-bit; a property test pins the equivalence against a
//! from-scratch recompute model under arbitrary
//! insert/delete/expire/evict interleavings. Two deliberate deviations:
//! when several groups change in one sync they now emit in one sorted
//! pass (the old element emitted changed groups in process-random
//! `HashMap` order — a latent determinism hazard; single-group tables,
//! which all shipped programs use, are unaffected), and `sum`/`avg` over
//! *floating-point* contributions maintain a running total whose
//! retractions can drift in the last ulp relative to a from-scratch fold
//! (integer contributions — every shipped aggregate — are exact).

use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use p2_pel::{EvalContext, Program};
use p2_table::{AggFunc, AggState, DeltaSubscription, InsertOutcome, RowId, TableDelta, TableRef};
use p2_value::{Tuple, Value};

use crate::element::{Element, ElementCtx};

/// Stores arriving tuples into a table and re-emits them as *deltas*.
///
/// Every accepted insert (new row, replacement, or soft-state refresh) is
/// forwarded on port 0 so that downstream rules triggered by updates to this
/// table (e.g. `bestSucc :- succ, ...`) see the change. Rows evicted by the
/// size bound are emitted on port 1 for optional handling.
pub struct Insert {
    table: TableRef,
    /// Number of inserts that failed (malformed tuples).
    pub errors: u64,
    /// Reused eviction spill buffer: eviction-heavy tables hit the
    /// size-bound path on every insert, and this keeps that path from
    /// allocating a fresh `Vec` per tuple (`Table::insert_spill`).
    spill: Vec<Tuple>,
}

impl Insert {
    /// Creates an insert bridge for `table`.
    pub fn new(table: TableRef) -> Insert {
        Insert {
            table,
            errors: 0,
            spill: Vec::new(),
        }
    }
}

impl Element for Insert {
    fn class(&self) -> &'static str {
        "Insert"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        debug_assert!(self.spill.is_empty(), "spill buffer drained every call");
        let result = self
            .table
            .lock()
            .insert_spill(tuple.clone(), ctx.now(), &mut self.spill);
        match result {
            Ok(outcome) => {
                // A soft-state refresh of an identical row leaves the table
                // unchanged; anything else (new row, replacement, eviction)
                // is a real mutation the profiler should see.
                if outcome != InsertOutcome::Refreshed || !self.spill.is_empty() {
                    ctx.note_state_change();
                }
                ctx.emit(0, tuple.clone());
                for e in self.spill.drain(..) {
                    ctx.emit(1, e);
                }
            }
            Err(_) => {
                self.errors += 1;
                self.spill.clear();
            }
        }
    }
}

/// Removes the arriving tuple from a table (OverLog `delete` rules).
///
/// Removed rows are emitted on port 0 so deletions can drive further
/// processing (e.g. re-computing a materialized aggregate).
pub struct Delete {
    table: TableRef,
    /// Number of deletes that failed (malformed tuples).
    pub errors: u64,
    /// Reused removal spill buffer, mirroring `Insert`'s eviction buffer:
    /// the delete hot path (`Table::delete_matching_spill`) appends removed
    /// rows here instead of allocating a fresh `Vec` per tuple.
    spill: Vec<Tuple>,
}

impl Delete {
    /// Creates a delete bridge for `table`.
    pub fn new(table: TableRef) -> Delete {
        Delete {
            table,
            errors: 0,
            spill: Vec::new(),
        }
    }
}

impl Element for Delete {
    fn class(&self) -> &'static str {
        "Delete"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        debug_assert!(self.spill.is_empty(), "spill buffer drained every call");
        let result = self
            .table
            .lock()
            .delete_matching_spill(tuple, &mut self.spill);
        match result {
            Ok(_removed) => {
                if !self.spill.is_empty() {
                    ctx.note_state_change();
                }
                for r in self.spill.drain(..) {
                    ctx.emit(0, r);
                }
            }
            Err(_) => {
                self.errors += 1;
                self.spill.clear();
            }
        }
    }
}

/// Per-event aggregation over a table (Figure 2's "Agg min<D> on finger").
///
/// For every arriving (partially joined) event tuple, the probe scans the
/// configured table; each candidate row is concatenated onto the event
/// tuple, the optional `filter` decides whether it contributes, and
/// `agg_expr` computes the contributed value.
///
/// The emitted tuple is `event ++ witness_row ++ [aggregate]`:
///
/// * for `min`/`max` the witness is the table row achieving the extremum
///   (first one scanned on ties), which gives OverLog its "choose the member
///   associated with the maximum random number" / "first address of a finger
///   with that minimum distance" semantics — the head of the rule may refer
///   to columns of the winning row;
/// * for `count`/`sum`/`avg` there is no meaningful witness, so the row part
///   is null-padded; `count` and `sum` emit a zero even when no row
///   contributes (Narada's `membersFound ... count<*>` relies on seeing 0),
///   while `min`/`max`/`avg` emit nothing.
///
/// # Delta-fed mode
///
/// A probe made delta-fed by [`AggProbe::delta_fed`] /
/// [`AggProbe::new_incremental`] stops rescanning the table per event. It
/// keeps a `RowId`-sorted **mirror** of the table, maintained from the
/// table's delta stream, and interns every mirrored row's **projection**:
/// its values at the row columns the filter and aggregate expression read.
/// Rows with the same projection share one slot, holding a representative
/// row and a live count. Per event, the programs run once per live slot,
/// against its representative; the rows are then folded in `RowId` order
/// (the table's scan order), each reading its slot's result, through the
/// scan path's witness/accumulate/finish logic. Chord's finger table holds
/// ~160 rows but only ~10 distinct successors, so a lookup hop runs the
/// programs ~10 times instead of ~160.
///
/// Emissions are bit-for-bit those of the scan path under four conditions:
///
/// * **pure programs** — no RNG or clock reads ([`AggProbe::can_increment`]),
///   so a program's result is a function of the values it loads;
/// * **`Load`-only field reads** — the programs reach the joined tuple only
///   through `Op::Load`, so the `Load` indices past the (planned) event
///   arity name every row column that can affect a row's result;
/// * **strict keys** — projections share a slot only when every column has
///   the same `Value` variant and payload (or is missing in both rows);
///   `Value::eq` is too weak, as it equates `Int(1)`, `Double(1.0)` and
///   `Id(1)`, which the programs can tell apart;
/// * **fold in scan order** — rows are still folded one at a time in
///   `RowId` order, so witness ties and floating-point `sum`/`avg`
///   accumulate exactly as in the scan.
///
/// An event whose arity is not the planned one takes the scan path.
/// Delta-queue overflow or any mirror incoherence rebuilds the mirror from
/// a counted full scan ([`p2_table::Table::scan_rows_counted`]) and reports
/// it via [`p2_table::Table::note_rebuild`].
pub struct AggProbe {
    table: TableRef,
    table_arity: usize,
    func: AggFunc,
    filter: Option<Program>,
    agg_expr: Program,
    out_name: String,
    /// Delta-fed state; `None` runs the recompute-per-event scan path.
    inc: Option<ProbeCache>,
}

/// The delta-fed half of an [`AggProbe`].
struct ProbeCache {
    sub: DeltaSubscription,
    /// Arity of the events the plan feeds the probe; the projection's
    /// column choice assumes it.
    event_arity: usize,
    /// `RowId`-sorted mirror of the aggregate table, each row with its
    /// projection slot.
    rows: Vec<(RowId, Tuple, usize)>,
    projections: Projections,
    needs_rebuild: bool,
    /// False until the first mirror build (which is initialization, not a
    /// fallback, and therefore not reported via `note_rebuild`).
    built: bool,
    /// Reused delta drain buffer.
    scratch: Vec<TableDelta>,
    /// Reused per-event contribution of every slot (`None`: no
    /// contribution, or a free slot).
    values: Vec<Option<Value>>,
}

/// The distinct projections of a probe's mirrored rows, interned into
/// reusable slots.
struct Projections {
    /// Sorted row columns the filter and aggregate expression read.
    cols: Vec<usize>,
    slots: Vec<Slot>,
    /// Projection → slot, for live slots.
    index: HashMap<Projection, usize>,
    /// Slots whose last row went away, reused before growing `slots`.
    free: Vec<usize>,
}

/// One distinct projection: a row that has it, and how many mirrored rows
/// do (0 for a free slot).
struct Slot {
    rep: Tuple,
    live: usize,
}

/// A row's values at the read columns (`None` past the row's end), with
/// strict equality: same `Value` variant and same payload.
struct Projection(Vec<Option<Value>>);

impl PartialEq for Projection {
    fn eq(&self, other: &Self) -> bool {
        // Within one variant `Value::eq` compares payloads exactly
        // (doubles by `total_cmp`, i.e. bit pattern).
        let strict = |a: &Option<Value>, b: &Option<Value>| match (a, b) {
            (Some(a), Some(b)) => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
            _ => a.is_none() && b.is_none(),
        };
        self.0.len() == other.0.len() && self.0.iter().zip(&other.0).all(|(a, b)| strict(a, b))
    }
}

impl Eq for Projection {}

impl Hash for Projection {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Strictly equal values are `Value::eq`-equal, whose hashes agree.
        self.0.hash(state);
    }
}

impl Projections {
    fn new(cols: Vec<usize>) -> Projections {
        Projections {
            cols,
            slots: Vec::new(),
            index: HashMap::new(),
            free: Vec::new(),
        }
    }

    fn key(&self, row: &Tuple) -> Projection {
        Projection(
            self.cols
                .iter()
                .map(|&c| row.get(c).ok().cloned())
                .collect(),
        )
    }

    /// Counts one more row with `row`'s projection, returning its slot.
    fn intern(&mut self, row: &Tuple) -> usize {
        let key = self.key(row);
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot].live += 1;
            return slot;
        }
        let entry = Slot {
            rep: row.clone(),
            live: 1,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, slot);
        slot
    }

    /// Counts one row fewer in `slot`, freeing the slot with its last row.
    fn release(&mut self, slot: usize) {
        self.slots[slot].live -= 1;
        if self.slots[slot].live == 0 {
            let key = self.key(&self.slots[slot].rep);
            self.index.remove(&key);
            self.free.push(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.index.clear();
        self.free.clear();
    }
}

/// Evaluates one row's contribution against `event ++ row`, replicating
/// the scan path's row handling exactly: a false or failed filter and a
/// failed aggregate expression both mean "does not contribute".
fn contribution(
    filter: &Option<Program>,
    agg_expr: &Program,
    event: &Tuple,
    row: &Tuple,
    ev: &mut EvalContext,
) -> Option<Value> {
    if let Some(filter) = filter {
        match filter.eval_bool_joined(event, row, ev) {
            Ok(true) => {}
            _ => return None,
        }
    }
    agg_expr.eval_joined(event, row, ev).ok()
}

impl AggProbe {
    /// Creates a recompute-per-event aggregation probe over a table whose
    /// rows have `table_arity` fields (every event pays a counted full
    /// scan).
    pub fn new(
        table: TableRef,
        table_arity: usize,
        func: AggFunc,
        filter: Option<Program>,
        agg_expr: Program,
        out_name: impl Into<String>,
    ) -> AggProbe {
        AggProbe {
            table,
            table_arity,
            func,
            filter,
            agg_expr,
            out_name: out_name.into(),
            inc: None,
        }
    }

    /// True if a probe with these programs may share evaluation results
    /// between rows: programs that read the RNG (`f_rand`, `f_coinFlip`)
    /// or the clock (`f_now`) are not pure functions of their inputs and
    /// must stay on the scan path. Planners check this before creating the
    /// delta subscription for [`AggProbe::delta_fed`].
    pub fn can_increment(filter: &Option<Program>, agg_expr: &Program) -> bool {
        let pure = |p: &Program| !p.uses_random() && !p.uses_time();
        pure(agg_expr) && filter.as_ref().is_none_or(pure)
    }

    /// Turns the probe delta-fed over an already-created subscription (the
    /// planner pools subscriptions per table at instantiation); events are
    /// expected to have `event_arity` fields. The caller must have
    /// verified [`AggProbe::can_increment`] — an impure program would
    /// share results between rows that must not share them.
    pub fn delta_fed(mut self, sub: DeltaSubscription, event_arity: usize) -> AggProbe {
        debug_assert!(Self::can_increment(&self.filter, &self.agg_expr));
        let mut cols: Vec<usize> = self
            .agg_expr
            .ops()
            .iter()
            .chain(self.filter.iter().flat_map(|f| f.ops().iter()))
            .filter_map(|op| match op {
                p2_pel::Op::Load(i) => i.checked_sub(event_arity),
                _ => None,
            })
            .collect();
        cols.sort_unstable();
        cols.dedup();
        self.inc = Some(ProbeCache {
            sub,
            event_arity,
            rows: Vec::new(),
            projections: Projections::new(cols),
            needs_rebuild: true,
            built: false,
            scratch: Vec::new(),
            values: Vec::new(),
        });
        self
    }

    /// Creates a delta-fed probe for events of `event_arity` fields,
    /// subscribing to the table's delta stream; falls back to the scan
    /// path when the programs are impure.
    pub fn new_incremental(
        table: TableRef,
        table_arity: usize,
        func: AggFunc,
        filter: Option<Program>,
        agg_expr: Program,
        out_name: impl Into<String>,
        event_arity: usize,
    ) -> AggProbe {
        let pure = Self::can_increment(&filter, &agg_expr);
        let probe = Self::new(table, table_arity, func, filter, agg_expr, out_name);
        if !pure {
            return probe;
        }
        let sub = probe.table.lock().subscribe_deltas();
        probe.delta_fed(sub, event_arity)
    }

    /// True if this probe runs in delta-fed mode (planner diagnostics).
    pub fn is_incremental(&self) -> bool {
        self.inc.is_some()
    }

    /// The recompute path: scan the table through the borrowing iterator,
    /// evaluating the filter and aggregate expression against the *virtual*
    /// join `event ++ row` (`Program::eval_joined`): no per-row
    /// joined-tuple materialization; only the winning witness row is
    /// cloned.
    fn push_scan(&mut self, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let guard = self.table.lock();
        // Contributions stream straight into the shared accumulator — no
        // per-event contribution vector, no second fold over it. A value
        // the accumulator rejects (non-numeric sum/avg) aborts the whole
        // probe without emitting, exactly like `AggFunc::apply` erroring
        // over the collected vector used to.
        let mut state = AggState::new(self.func);
        let mut witness: Option<(Value, Tuple)> = None;
        for row in guard.scan_iter_counted() {
            if let Some(filter) = &self.filter {
                match filter.eval_bool_joined(tuple, row, ctx.eval()) {
                    Ok(true) => {}
                    _ => continue,
                }
            }
            let Ok(v) = self.agg_expr.eval_joined(tuple, row, ctx.eval()) else {
                continue;
            };
            let better = match (&witness, self.func) {
                (None, _) => true,
                (Some((best, _)), AggFunc::Min) => v < *best,
                (Some((best, _)), AggFunc::Max) => v > *best,
                _ => false,
            };
            if better {
                witness = Some((v.clone(), row.clone()));
            }
            if state.accumulate(&v).is_err() {
                return;
            }
        }
        drop(guard);
        // min/max/avg over an empty contribution set finish to `None` and
        // produce no tuple at all; count/sum legitimately produce 0.
        let Some(aggregate) = state.finish() else {
            return;
        };
        let row_part: Vec<Value> = match (self.func, witness) {
            (AggFunc::Min | AggFunc::Max, Some((_, row))) => row.values().to_vec(),
            _ => vec![Value::Null; self.table_arity],
        };
        let mut extra = row_part;
        extra.push(aggregate);
        ctx.emit(0, tuple.extended(extra).renamed(&self.out_name));
    }

    /// The delta-fed path: catch up on the table's deltas, evaluate the
    /// programs once per live projection slot, then fold the mirrored rows
    /// in scan order through the same witness/accumulate/finish logic as
    /// [`AggProbe::push_scan`].
    fn push_incremental(&mut self, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        let AggProbe {
            table,
            table_arity,
            func,
            filter,
            agg_expr,
            out_name,
            inc,
        } = self;
        let cache = inc.as_mut().expect("push_incremental requires the cache");
        // Quiet fast path: no pending deltas means the mirror is already
        // exact — skip the lock/drain round trip (one atomic load instead).
        if cache.needs_rebuild || cache.sub.has_pending() {
            // Catching up on deltas mutates the mirror: real work, not a
            // refresh no-op.
            ctx.note_state_change();
            // Borrow a local clone of the `Arc` so the cache stays freely
            // borrowable while the table is locked.
            let table = table.clone();
            let mut guard = table.lock();
            if guard.drain_deltas(&cache.sub, &mut cache.scratch) {
                cache.needs_rebuild = true;
                cache.scratch.clear();
            }
            if !cache.needs_rebuild && !cache.apply_deltas() {
                cache.needs_rebuild = true;
            }
            cache.scratch.clear();
            if cache.needs_rebuild {
                if cache.built {
                    guard.note_rebuild();
                }
                cache.rows.clear();
                cache.projections.clear();
                for (id, row) in guard.scan_rows_counted() {
                    let slot = cache.projections.intern(row);
                    cache.rows.push((id, row.clone(), slot));
                }
                cache.needs_rebuild = false;
                cache.built = true;
            }
        }

        cache.values.clear();
        for slot in &cache.projections.slots {
            cache.values.push(if slot.live > 0 {
                contribution(filter, agg_expr, tuple, &slot.rep, ctx.eval())
            } else {
                None
            });
        }
        // The fold below is line-for-line the scan path's, over the rows in
        // scan order, each reading its slot's contribution.
        let mut state = AggState::new(*func);
        let mut witness: Option<(&Value, usize)> = None;
        for (at, (_, _, slot)) in cache.rows.iter().enumerate() {
            let Some(v) = &cache.values[*slot] else {
                continue;
            };
            let better = match (&witness, *func) {
                (None, _) => true,
                (Some((best, _)), AggFunc::Min) => v < *best,
                (Some((best, _)), AggFunc::Max) => v > *best,
                _ => false,
            };
            if better {
                witness = Some((v, at));
            }
            if state.accumulate(v).is_err() {
                return;
            }
        }
        let Some(aggregate) = state.finish() else {
            return;
        };
        let row_part: Vec<Value> = match (*func, witness) {
            (AggFunc::Min | AggFunc::Max, Some((_, at))) => cache.rows[at].1.values().to_vec(),
            _ => vec![Value::Null; *table_arity],
        };
        let mut extra = row_part;
        extra.push(aggregate);
        ctx.emit(0, tuple.extended(extra).renamed(out_name));
    }
}

impl ProbeCache {
    /// Applies drained deltas to the mirror and its projections; `false`
    /// means the mirror no longer matches the table and must be rebuilt
    /// from a scan.
    fn apply_deltas(&mut self) -> bool {
        for delta in &self.scratch {
            let at = self.rows.binary_search_by_key(&delta.row, |(id, ..)| *id);
            if delta.kind.is_removal() {
                let Ok(at) = at else {
                    return false; // removal of an unknown row
                };
                let (_, _, slot) = self.rows.remove(at);
                self.projections.release(slot);
            } else {
                let Err(at) = at else {
                    return false; // insert into an occupied row id
                };
                let slot = self.projections.intern(&delta.tuple);
                self.rows.insert(at, (delta.row, delta.tuple.clone(), slot));
            }
        }
        true
    }
}

impl Element for AggProbe {
    fn class(&self) -> &'static str {
        "AggProbe"
    }

    fn push(&mut self, _port: usize, tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        match &self.inc {
            Some(cache) if cache.event_arity == tuple.arity() => self.push_incremental(tuple, ctx),
            _ => self.push_scan(tuple, ctx),
        }
    }
}

/// Incrementally maintained per-group aggregate state.
///
/// `contribs` counts the rows currently contributing (valid group key
/// *and* valid aggregate value, matching `Table::aggregate`'s filtering);
/// the group vanishes when it reaches zero.
#[derive(Debug)]
struct GroupState {
    contribs: usize,
    acc: Accum,
}

#[derive(Debug)]
enum Accum {
    /// `count<*>`: the value is `contribs` itself.
    Count,
    /// Running sum; `non_int` counts non-integer contributions so the
    /// all-int result collapse survives retractions.
    Sum { acc: f64, non_int: usize },
    /// Running sum for the mean (`contribs` is the divisor).
    Avg { acc: f64 },
    /// Current extremum. Retracting a value that is not strictly worse
    /// than `best` (or is incomparable) marks the group `dirty`; dirty
    /// groups are rebuilt in one batched table rescan at the end of the
    /// sync, not per delta.
    MinMax { best: Option<Value>, dirty: bool },
}

impl GroupState {
    fn new(func: AggFunc) -> GroupState {
        GroupState {
            contribs: 0,
            acc: match func {
                AggFunc::Count => Accum::Count,
                AggFunc::Sum => Accum::Sum {
                    acc: 0.0,
                    non_int: 0,
                },
                AggFunc::Avg => Accum::Avg { acc: 0.0 },
                AggFunc::Min | AggFunc::Max => Accum::MinMax {
                    best: None,
                    dirty: false,
                },
            },
        }
    }

    /// Folds one contribution in. `Err` means the value cannot feed this
    /// aggregate (non-numeric sum/avg) — the caller falls back to a full
    /// rebuild, which reproduces `Table::aggregate`'s error behaviour.
    fn insert(&mut self, func: AggFunc, v: &Value) -> Result<(), p2_value::ValueError> {
        match &mut self.acc {
            Accum::Count => {}
            Accum::Sum { acc, non_int } => {
                let d = v.to_double()?;
                if !matches!(v, Value::Int(_)) {
                    *non_int += 1;
                }
                *acc += d;
            }
            Accum::Avg { acc } => *acc += v.to_double()?,
            Accum::MinMax { best, dirty } => {
                if !*dirty {
                    let better = match (func, best.as_ref()) {
                        (_, None) => true,
                        (AggFunc::Min, Some(b)) => v < b,
                        (AggFunc::Max, Some(b)) => v > b,
                        _ => unreachable!("MinMax accum only for min/max"),
                    };
                    if better {
                        *best = Some(v.clone());
                    }
                }
            }
        }
        self.contribs += 1;
        Ok(())
    }

    /// Retracts one contribution. Returns `Err` on numeric failure and
    /// `Ok(false)` when the state cannot absorb the retraction coherently
    /// (caller rebuilds).
    fn remove(&mut self, func: AggFunc, v: &Value) -> Result<bool, p2_value::ValueError> {
        if self.contribs == 0 {
            return Ok(false);
        }
        match &mut self.acc {
            Accum::Count => {}
            Accum::Sum { acc, non_int } => {
                let d = v.to_double()?;
                if !matches!(v, Value::Int(_)) {
                    if *non_int == 0 {
                        return Ok(false);
                    }
                    *non_int -= 1;
                }
                *acc -= d;
            }
            Accum::Avg { acc } => *acc -= v.to_double()?,
            Accum::MinMax { best, dirty } => {
                if !*dirty {
                    // Removing anything not strictly worse than the current
                    // extremum (or incomparable to it) invalidates it.
                    let safe = match (func, best.as_ref()) {
                        (_, None) => false,
                        (AggFunc::Min, Some(b)) => {
                            matches!(v.partial_cmp(b), Some(std::cmp::Ordering::Greater))
                        }
                        (AggFunc::Max, Some(b)) => {
                            matches!(v.partial_cmp(b), Some(std::cmp::Ordering::Less))
                        }
                        _ => unreachable!("MinMax accum only for min/max"),
                    };
                    if !safe {
                        *dirty = true;
                    }
                }
            }
        }
        self.contribs -= 1;
        Ok(true)
    }

    /// The group's current aggregate value (`None` only transiently, for a
    /// dirty min/max before its rescan).
    fn value(&self, func: AggFunc) -> Option<Value> {
        match &self.acc {
            Accum::Count => Some(Value::Int(self.contribs as i64)),
            Accum::Sum { acc, non_int } => Some(if *non_int == 0 {
                Value::Int(*acc as i64)
            } else {
                Value::Double(*acc)
            }),
            Accum::Avg { acc } => {
                if self.contribs == 0 {
                    None
                } else {
                    Some(Value::Double(*acc / self.contribs as f64))
                }
            }
            Accum::MinMax { best, .. } => best.clone(),
        }
        .filter(|_| self.contribs > 0 || matches!(func, AggFunc::Count | AggFunc::Sum))
    }

    fn is_dirty(&self) -> bool {
        matches!(self.acc, Accum::MinMax { dirty: true, .. })
    }
}

/// Materialized aggregate over a table, re-emitted whenever it changes.
///
/// Implements rules whose body consists solely of a table and whose head
/// carries an aggregate (`succCount(NI, count<*>) :- succ(NI, S, SI)`).
/// The element subscribes to the table's [`TableDelta`] stream and, on
/// every poke (the planner routes the table's insert and delete deltas
/// here), drains the deltas accumulated since the last poke — including
/// expiry and eviction, which the recompute-era element only observed
/// indirectly — updates its per-group state in O(1) per delta, and emits
/// `out_name(group..., agg)` for groups whose value changed. Groups whose
/// last row vanished retract exactly as before: `count`/`sum` emit their
/// empty value (0) and the memo entry is dropped; `min`/`max`/`avg` are
/// silently forgotten so a re-appearance re-emits.
pub struct TableAgg {
    table: TableRef,
    sub: DeltaSubscription,
    func: AggFunc,
    agg_col: Option<usize>,
    group_cols: Vec<usize>,
    out_name: String,
    /// Incremental per-group state.
    groups: HashMap<Vec<Value>, GroupState>,
    /// Last emitted value per group (the change-detection memo).
    last: HashMap<Vec<Value>, Value>,
    /// Set when the incremental state must be rebuilt from a table scan
    /// (initial start, delta-queue overflow, or a numeric failure that the
    /// recompute semantics surface as "emit nothing until fixed").
    needs_rebuild: bool,
    /// Reused delta drain buffer.
    scratch: Vec<TableDelta>,
    /// Reused touched-group collection buffer.
    touched: Vec<Vec<Value>>,
}

impl TableAgg {
    /// Creates a materialized table aggregate (subscribing to the table's
    /// delta stream).
    pub fn new(
        table: TableRef,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: Vec<usize>,
        out_name: impl Into<String>,
    ) -> TableAgg {
        let sub = table.lock().subscribe_deltas();
        Self::with_subscription(table, func, agg_col, group_cols, out_name, sub)
    }

    /// Like [`TableAgg::new`] but over an already-created subscription (the
    /// planner pools subscriptions per table at instantiation so each
    /// table is locked once, not once per consuming element).
    pub fn with_subscription(
        table: TableRef,
        func: AggFunc,
        agg_col: Option<usize>,
        group_cols: Vec<usize>,
        out_name: impl Into<String>,
        sub: DeltaSubscription,
    ) -> TableAgg {
        TableAgg {
            table,
            sub,
            func,
            agg_col,
            group_cols,
            out_name: out_name.into(),
            groups: HashMap::new(),
            last: HashMap::new(),
            needs_rebuild: true,
            scratch: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The maintained `(group, aggregate)` pairs, sorted by group key.
    /// Exposed for the equivalence property tests and diagnostics; matches
    /// `Table::aggregate` output exactly.
    pub fn current(&self) -> Vec<(Vec<Value>, Value)> {
        let mut out: Vec<(Vec<Value>, Value)> = self
            .groups
            .iter()
            .filter_map(|(k, s)| s.value(self.func).map(|v| (k.clone(), v)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Splits a delta tuple into its group key and contribution, exactly
    /// like one `Table::aggregate` fold step; `None` when the row does not
    /// participate in this aggregate at all.
    fn classify<'t>(&self, tuple: &'t Tuple) -> Option<(Vec<Value>, &'t Value)> {
        let key = extract(tuple, &self.group_cols)?;
        let contribution = match self.agg_col {
            Some(c) => tuple.get(c).ok()?,
            None => &Value::Int(1),
        };
        Some((key, contribution))
    }

    /// Rebuilds the incremental state from a full table scan, replicating
    /// `Table::aggregate`'s row filtering and error behaviour.
    fn build_states(
        &self,
        table: &p2_table::Table,
    ) -> Result<HashMap<Vec<Value>, GroupState>, p2_value::ValueError> {
        let mut groups: HashMap<Vec<Value>, GroupState> = HashMap::new();
        for tuple in table.scan_iter_counted() {
            let Some((key, contribution)) = self.classify(tuple) else {
                continue;
            };
            groups
                .entry(key)
                .or_insert_with(|| GroupState::new(self.func))
                .insert(self.func, contribution)?;
        }
        Ok(groups)
    }

    /// Applies drained deltas to the incremental state; `false` means the
    /// state is no longer coherent and must be rebuilt.
    fn apply_deltas(&mut self) -> bool {
        for i in 0..self.scratch.len() {
            let delta = &self.scratch[i];
            let Some((key, contribution)) = self.classify(&delta.tuple) else {
                continue;
            };
            if delta.kind.is_removal() {
                let Some(state) = self.groups.get_mut(&key) else {
                    return false; // retraction for an unknown group
                };
                match state.remove(self.func, contribution) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => return false,
                }
                if state.contribs == 0 {
                    self.groups.remove(&key);
                }
            } else {
                let state = self
                    .groups
                    .entry(key.clone())
                    .or_insert_with(|| GroupState::new(self.func));
                if state.insert(self.func, contribution).is_err() {
                    return false;
                }
            }
            self.touched.push(key);
        }
        true
    }

    /// Rebuilds the extremum of every dirty min/max group in one batched
    /// table rescan (the recompute-on-retraction fallback).
    fn rescan_dirty(&mut self, table: &p2_table::Table) {
        let dirty: HashSet<Vec<Value>> = self
            .groups
            .iter()
            .filter(|(_, s)| s.is_dirty())
            .map(|(k, _)| k.clone())
            .collect();
        if dirty.is_empty() {
            return;
        }
        let mut fresh: HashMap<Vec<Value>, GroupState> = HashMap::new();
        for tuple in table.scan_iter_counted() {
            let Some((key, contribution)) = self.classify(tuple) else {
                continue;
            };
            if !dirty.contains(&key) {
                continue;
            }
            // Min/max contributions never fail to accumulate (comparison
            // only), so the error arm is unreachable in practice.
            let _ = fresh
                .entry(key)
                .or_insert_with(|| GroupState::new(self.func))
                .insert(self.func, contribution);
        }
        for key in dirty {
            match fresh.remove(&key) {
                Some(state) => {
                    self.groups.insert(key, state);
                }
                None => {
                    self.groups.remove(&key);
                }
            }
        }
    }

    /// Catches up on the table's delta stream and emits every group whose
    /// aggregate changed. The emission contract matches the recompute-era
    /// element: per sync, vanished and changed groups come out in one
    /// deterministic (sorted) pass.
    fn sync(&mut self, ctx: &mut ElementCtx<'_>) {
        // Quiet fast path: nothing pending means no group changed since
        // the last sync — one atomic load instead of a lock/drain.
        if !self.needs_rebuild && !self.sub.has_pending() {
            return;
        }
        // Past the quiet check there are deltas (or a rebuild) to fold into
        // the group states: this poke does real maintenance work.
        ctx.note_state_change();
        self.touched.clear();
        {
            // The guard borrows a local clone of the `Arc`, not `self`, so
            // the state-maintenance methods below can borrow `self` freely
            // while the table stays locked.
            let table = self.table.clone();
            let mut guard = table.lock();
            if guard.drain_deltas(&self.sub, &mut self.scratch) {
                self.needs_rebuild = true;
                guard.note_rebuild();
                self.scratch.clear();
            }
            if !self.needs_rebuild && !self.apply_deltas() {
                self.needs_rebuild = true;
                guard.note_rebuild();
            }
            self.scratch.clear();
            if self.needs_rebuild {
                match self.build_states(&guard) {
                    Ok(groups) => {
                        self.groups = groups;
                        self.needs_rebuild = false;
                        // Every known or previously emitted group must be
                        // re-examined after a rebuild.
                        self.touched.clear();
                        self.touched.extend(self.groups.keys().cloned());
                        self.touched.extend(self.last.keys().cloned());
                    }
                    Err(_) => {
                        // Matches `recompute`'s behaviour on aggregation
                        // errors: emit nothing, retry at the next poke.
                        return;
                    }
                }
            } else {
                self.rescan_dirty(&guard);
            }
        }

        // One deterministic pass over the touched groups.
        self.touched.sort();
        self.touched.dedup();
        let empty_value = self.func.apply(&[]).ok().flatten();
        for key in std::mem::take(&mut self.touched) {
            match self.groups.get(&key).and_then(|s| s.value(self.func)) {
                Some(agg) => {
                    if self.last.get(&key) != Some(&agg) {
                        self.last.insert(key.clone(), agg.clone());
                        let mut values = key;
                        values.push(agg);
                        ctx.emit(0, Tuple::new(&self.out_name, values));
                    }
                }
                None => {
                    // Vanished: retract if the group had ever been emitted.
                    if self.last.remove(&key).is_some() {
                        if let Some(v) = &empty_value {
                            let mut values = key;
                            values.push(v.clone());
                            ctx.emit(0, Tuple::new(&self.out_name, values));
                        }
                    }
                }
            }
        }
    }
}

/// Extracts the values at `cols`, or `None` if any column is out of range
/// (mirrors `Table::aggregate`'s row filtering).
fn extract(tuple: &Tuple, cols: &[usize]) -> Option<Vec<Value>> {
    cols.iter()
        .map(|&c| tuple.get(c).ok().cloned())
        .collect::<Option<Vec<Value>>>()
}

impl Element for TableAgg {
    fn class(&self) -> &'static str {
        "TableAgg"
    }

    fn push(&mut self, _port: usize, _tuple: &Tuple, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }

    fn on_start(&mut self, ctx: &mut ElementCtx<'_>) {
        self.sync(ctx);
    }

    /// A poke only does work when the delta subscription has pending
    /// deltas (or a rebuild is owed) — exactly the condition `sync`'s
    /// quiet fast path checks before touching any state. The pending flag
    /// is a lock-free atomic, so the guard costs one load.
    fn would_wake(&self, _port: usize, _tuple: &Tuple, _eval: &mut EvalContext) -> bool {
        self.needs_rebuild || self.sub.has_pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::{Collector, Demux};
    use crate::engine::{Engine, Graph, Route};
    use p2_pel::{BinOp, Expr, IntervalKind};
    use p2_table::{Table, TableSpec};
    use p2_value::{SimTime, TupleBuilder, Uint160};
    use parking_lot::Mutex;
    use std::sync::Arc;

    fn table(spec: TableSpec, rows: Vec<Tuple>) -> TableRef {
        let mut t = Table::new(spec);
        for r in rows {
            t.insert(r, SimTime::ZERO).unwrap();
        }
        Arc::new(Mutex::new(t))
    }

    fn run_one(element: Box<dyn Element>, inputs: Vec<Tuple>) -> Vec<Tuple> {
        let mut g = Graph::new();
        let e = g.add("elt", element);
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(e, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        engine.start(SimTime::ZERO);
        for i in inputs {
            engine.deliver(i, SimTime::from_secs(1));
        }
        let out = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        out
    }

    #[test]
    fn insert_stores_and_emits_delta() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let insert = Insert::new(t.clone());
        let tup = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        let out = run_one(Box::new(insert), vec![tup.clone()]);
        assert_eq!(out, vec![tup]);
        assert_eq!(t.lock().len(), 1);
    }

    #[test]
    fn insert_emits_evictions_on_port_one() {
        let t = table(TableSpec::new("succ", vec![1]).with_max_size(1), vec![]);
        let mut g = Graph::new();
        let e = g.add("insert", Box::new(Insert::new(t.clone())));
        let (c, evicted_buf) = Collector::new();
        let c = g.add("evicted", Box::new(c));
        g.connect(e, 1, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: e,
            port: 0,
        });
        for s in [5i64, 9] {
            let tup = TupleBuilder::new("succ")
                .push("n1")
                .push(s)
                .push("x")
                .build();
            engine.deliver(tup, SimTime::from_secs(s as u64));
        }
        assert_eq!(t.lock().len(), 1);
        assert_eq!(evicted_buf.lock().len(), 1);
    }

    #[test]
    fn delete_removes_and_emits() {
        let row = TupleBuilder::new("neighbor").push("n1").push("n2").build();
        let t = table(TableSpec::new("neighbor", vec![1]), vec![row.clone()]);
        let delete = Delete::new(t.clone());
        let out = run_one(Box::new(delete), vec![row.clone()]);
        assert_eq!(out, vec![row]);
        assert!(t.lock().is_empty());
    }

    #[test]
    fn agg_probe_min_distance_like_chord_lookup() {
        // finger(NI, I, B, BI) rows; the event is lookup(NI, K, R, E) and we
        // aggregate D := K - B - 1 over fingers with B in (N, K).
        let fingers = vec![
            TupleBuilder::new("finger")
                .push("n1")
                .push(0i64)
                .push(Value::Id(Uint160::from_u64(10)))
                .push("n10")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(1i64)
                .push(Value::Id(Uint160::from_u64(40)))
                .push("n40")
                .build(),
            TupleBuilder::new("finger")
                .push("n1")
                .push(2i64)
                .push(Value::Id(Uint160::from_u64(90)))
                .push("n90")
                .build(),
        ];
        let t = table(TableSpec::new("finger", vec![2]), fingers);
        // Event tuple layout: (NI, K, R, E, N) — K at 1, N at 4.
        // Joined layout appends finger fields: I at 6, B at 7, BI at 8.
        let filter = Program::compile(&Expr::Interval {
            kind: IntervalKind::OpenOpen,
            value: Box::new(Expr::Field(7)),
            low: Box::new(Expr::Field(4)),
            high: Box::new(Expr::Field(1)),
        });
        let agg = Program::compile(&Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Field(1), Expr::Field(7)),
            Expr::int(1),
        ));
        let probe = AggProbe::new(t, 4, AggFunc::Min, Some(filter), agg, "bestLookupDist");
        let event = TupleBuilder::new("lookup_node")
            .push("n1")
            .push(Value::Id(Uint160::from_u64(70)))
            .push("n1")
            .push(123i64)
            .push(Value::Id(Uint160::from_u64(5)))
            .build();
        let out = run_one(Box::new(probe), vec![event]);
        assert_eq!(out.len(), 1);
        let got = &out[0];
        assert_eq!(got.name(), "bestLookupDist");
        // event (5 fields) ++ witness finger row (4 fields) ++ aggregate.
        assert_eq!(got.arity(), 10);
        // Fingers 10 and 40 are in (5, 70); min distance is 70-40-1 = 29,
        // achieved by the finger pointing at n40.
        assert_eq!(got.field(9), &Value::Id(Uint160::from_u64(29)));
        assert_eq!(got.field(8), &Value::str("n40"));
        assert_eq!(got.field(7), &Value::Id(Uint160::from_u64(40)));
    }

    #[test]
    fn agg_probe_max_picks_witness_row() {
        // Narada P0: pick the member with the maximum random number. Here we
        // use a deterministic "score" column instead of f_rand().
        let members = vec![
            TupleBuilder::new("member")
                .push("n1")
                .push("m1")
                .push(3i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m2")
                .push(9i64)
                .build(),
            TupleBuilder::new("member")
                .push("n1")
                .push("m3")
                .push(5i64)
                .build(),
        ];
        let t = table(TableSpec::new("member", vec![2]), members);
        // Event: (X, E); joined row starts at field 2, score at field 4.
        let agg = Program::compile(&Expr::Field(4));
        let probe = AggProbe::new(t, 3, AggFunc::Max, None, agg, "pingEvent");
        let event = TupleBuilder::new("periodic").push("n1").push(77i64).build();
        let out = run_one(Box::new(probe), vec![event]);
        assert_eq!(out.len(), 1);
        // Witness row is m2 (score 9).
        assert_eq!(out[0].field(3), &Value::str("m2"));
        assert_eq!(out[0].field(5), &Value::Int(9));
    }

    #[test]
    fn agg_probe_count_emits_zero_and_min_does_not() {
        let t = table(TableSpec::new("member", vec![1]), vec![]);
        let agg = Program::compile(&Expr::Field(0));
        let probe = AggProbe::new(t.clone(), 3, AggFunc::Count, None, agg, "membersFound");
        let event = TupleBuilder::new("refresh").push("n1").build();
        let out = run_one(Box::new(probe), vec![event.clone()]);
        assert_eq!(out.len(), 1);
        // event (1) ++ null row padding (3) ++ count.
        assert_eq!(out[0].arity(), 5);
        assert_eq!(out[0].field(1), &Value::Null);
        assert_eq!(out[0].field(4), &Value::Int(0));

        let agg = Program::compile(&Expr::Field(0));
        let probe = AggProbe::new(t, 3, AggFunc::Min, None, agg, "best");
        assert!(run_one(Box::new(probe), vec![event]).is_empty());
    }

    /// Chord L2 shapes for the incremental-probe equivalence tests: event
    /// layout (NI, K, R, E, N), finger layout (NI, I, B, BI); joined B is
    /// field 7, the filter is B in (N, K) and the aggregate K - B - 1.
    fn chord_filter() -> Program {
        Program::compile(&Expr::Interval {
            kind: IntervalKind::OpenOpen,
            value: Box::new(Expr::Field(7)),
            low: Box::new(Expr::Field(4)),
            high: Box::new(Expr::Field(1)),
        })
    }

    fn chord_agg() -> Program {
        Program::compile(&Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Sub, Expr::Field(1), Expr::Field(7)),
            Expr::int(1),
        ))
    }

    fn finger(b: u64, bi: &str) -> Tuple {
        finger_at(0, Value::Id(Uint160::from_u64(b)), bi)
    }

    /// A finger row with index `i` and successor id `b` (any variant).
    fn finger_at(i: i64, b: Value, bi: &str) -> Tuple {
        TupleBuilder::new("finger")
            .push("n1")
            .push(i)
            .push(b)
            .push(bi)
            .build()
    }

    fn lookup(k: u64, n: u64) -> Tuple {
        TupleBuilder::new("lookup_node")
            .push("n1")
            .push(Value::Id(Uint160::from_u64(k)))
            .push("n1")
            .push(123i64)
            .push(Value::Id(Uint160::from_u64(n)))
            .build()
    }

    /// A scan-path probe and a delta-fed probe over two identically
    /// mutated tables; every poke goes to both and the outputs must match
    /// tuple-for-tuple.
    struct ProbePair {
        tables: [TableRef; 2],
        engines: [Engine; 2],
        bufs: [crate::elements::CollectorHandle; 2],
    }

    impl ProbePair {
        /// Chord's L2 probe: `min<K - B - 1>` over fingers with B in (N, K).
        fn new(spec: TableSpec) -> ProbePair {
            Self::with(spec, AggFunc::Min, Some(chord_filter()), chord_agg())
        }

        /// Any probe over the finger table, fed `lookup` events (arity 5).
        fn with(
            spec: TableSpec,
            func: AggFunc,
            filter: Option<Program>,
            agg: Program,
        ) -> ProbePair {
            let mk = |incremental: bool| {
                let t = table(spec.clone(), vec![]);
                let probe = if incremental {
                    AggProbe::new_incremental(
                        t.clone(),
                        4,
                        func,
                        filter.clone(),
                        agg.clone(),
                        "bestLookupDist",
                        5,
                    )
                } else {
                    AggProbe::new(
                        t.clone(),
                        4,
                        func,
                        filter.clone(),
                        agg.clone(),
                        "bestLookupDist",
                    )
                };
                assert_eq!(probe.is_incremental(), incremental);
                let mut g = Graph::new();
                let e = g.add("probe", Box::new(probe));
                let (c, buf) = Collector::new();
                let c = g.add("tap", Box::new(c));
                g.connect(e, 0, c, 0);
                let mut engine = Engine::new(g, "n1", 1);
                engine.set_entry(Route {
                    element: e,
                    port: 0,
                });
                engine.start(SimTime::ZERO);
                (t, engine, buf)
            };
            let (t0, e0, b0) = mk(false);
            let (t1, e1, b1) = mk(true);
            ProbePair {
                tables: [t0, t1],
                engines: [e0, e1],
                bufs: [b0, b1],
            }
        }

        fn mutate(&self, f: impl Fn(&mut Table)) {
            for t in &self.tables {
                f(&mut t.lock());
            }
        }

        fn poke(&mut self, event: Tuple, at: SimTime) {
            for e in &mut self.engines {
                e.deliver(event.clone(), at);
            }
        }

        fn assert_outputs_match(&self) {
            let dump = |b: &crate::elements::CollectorHandle| -> Vec<Tuple> {
                b.lock().iter().map(|(_, t)| t.clone()).collect()
            };
            let scan = dump(&self.bufs[0]);
            let inc = dump(&self.bufs[1]);
            // Debug renderings compare strictly (variant and payload),
            // which `Value::eq` does not.
            assert_eq!(
                format!("{scan:?}"),
                format!("{inc:?}"),
                "delta-fed probe diverged from scan probe"
            );
            assert!(!scan.is_empty(), "vacuous equivalence: nothing emitted");
        }
    }

    /// The delta-fed probe must match the scan probe bit-for-bit across
    /// every table mutation kind: insert, replace, delete, expire, evict.
    #[test]
    fn agg_probe_incremental_matches_scan_across_mutations() {
        let spec = TableSpec::new("finger", vec![2])
            .with_lifetime_secs(100)
            .with_max_size(4);
        let mut pair = ProbePair::new(spec);

        pair.mutate(|t| {
            for (b, bi) in [(10, "n10"), (40, "n40"), (90, "n90")] {
                t.insert(finger(b, bi), SimTime::from_secs(1)).unwrap();
            }
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(2));

        // Insert a better finger: the same event must pick it up.
        pair.mutate(|t| {
            t.insert(finger(60, "n60"), SimTime::from_secs(3)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(3));

        // Replace (same key B=60, new BI): Delete+Insert under one RowId.
        pair.mutate(|t| {
            t.insert(finger(60, "n60b"), SimTime::from_secs(4)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(4));

        // Delete the current winner.
        pair.mutate(|t| {
            t.delete_matching(&finger(60, "n60b")).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(5));

        // A different event (different K, N) in the same run.
        pair.poke(lookup(100, 20), SimTime::from_secs(6));

        // Eviction: the table caps at 4 rows.
        pair.mutate(|t| {
            for (b, bi) in [(20, "n20"), (30, "n30"), (50, "n50")] {
                t.insert(finger(b, bi), SimTime::from_secs(7)).unwrap();
            }
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(8));

        // Expiry: everything inserted before t=7 ages out at t=105.
        pair.mutate(|t| {
            t.expire(SimTime::from_secs(105));
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(106));

        pair.assert_outputs_match();
        // The observable perf contract: the scan probe pays one full scan
        // per event; the delta-fed probe only scanned to build its mirror.
        let scan_scans = pair.tables[0].lock().stats().full_scans;
        let inc_scans = pair.tables[1].lock().stats().full_scans;
        assert_eq!(scan_scans, 7);
        assert_eq!(inc_scans, 1, "delta path should not rescan per event");
    }

    /// Overflowing the delta log between pokes forces a mirror rebuild
    /// (counted in `TableStats::rebuilds`) and still matches the scan.
    #[test]
    fn agg_probe_overflow_rebuilds_and_matches() {
        let mut pair = ProbePair::new(TableSpec::new("finger", vec![2]));
        pair.mutate(|t| {
            t.insert(finger(40, "n40"), SimTime::from_secs(1)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(2));

        pair.mutate(|t| {
            for i in 0..(p2_table::DELTA_LOG_CAP as u64 + 8) {
                // Distinct keys: every insert is a fresh delta.
                t.insert(finger(1000 + i, "bulk"), SimTime::from_secs(3))
                    .unwrap();
            }
            t.delete_matching(&finger(40, "n40")).unwrap();
            t.insert(finger(30, "n30"), SimTime::from_secs(3)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(4));

        pair.assert_outputs_match();
        assert_eq!(pair.tables[1].lock().stats().rebuilds, 1);
        assert_eq!(pair.tables[0].lock().stats().rebuilds, 0);
    }

    /// Fingers keyed by index, so many rows share one successor id B (the
    /// only row column the Chord programs read) while differing in I and
    /// BI: the shared evaluation must still pick the first-scanned witness.
    #[test]
    fn agg_probe_rows_sharing_read_columns_match_scan() {
        let mut pair = ProbePair::new(TableSpec::new("finger", vec![1]));
        pair.mutate(|t| {
            for i in 0..12i64 {
                let b = [40u64, 10, 90][i as usize % 3];
                let row = finger_at(i, Value::Id(Uint160::from_u64(b)), &format!("n{b}-{i}"));
                t.insert(row, SimTime::from_secs(1)).unwrap();
            }
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(2));
        pair.poke(lookup(100, 20), SimTime::from_secs(2));
        // Drop the first row of B=40 (its slot's representative): the
        // remaining B=40 rows keep the slot and the witness moves on.
        pair.mutate(|t| {
            t.delete_matching(&finger_at(0, Value::Id(Uint160::from_u64(40)), "n40-0"))
                .unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(3));
        pair.assert_outputs_match();
        let first = pair.bufs[1].lock()[0].1.clone();
        assert_eq!(first.field(8), &Value::str("n40-0"));
        let last = pair.bufs[1].lock().last().unwrap().1.clone();
        assert_eq!(last.field(8), &Value::str("n40-3"));
    }

    /// `Int(1)`, `Double(1.0)` and `Id(1)` are `Value::eq`-equal but must
    /// not share a slot: once the `Id(1)` row is gone, `min<B>` is the
    /// first-scanned `Int(1)` and `sum<B>` the double 2.0, where a merged
    /// slot represented by `Id(1)` would emit `Id(1)` and fail the sum.
    #[test]
    fn agg_probe_numeric_variants_keep_separate_slots() {
        for func in [AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Avg] {
            let mut pair = ProbePair::with(
                TableSpec::new("finger", vec![1]),
                func,
                None,
                Program::compile(&Expr::Field(7)),
            );
            pair.mutate(|t| {
                let id_one = Value::Id(Uint160::from_u64(1));
                t.insert(finger_at(0, id_one, "id"), SimTime::from_secs(1))
                    .unwrap();
                t.insert(finger_at(1, Value::Int(1), "int"), SimTime::from_secs(1))
                    .unwrap();
                t.insert(
                    finger_at(2, Value::Double(1.0), "dbl"),
                    SimTime::from_secs(1),
                )
                .unwrap();
            });
            pair.poke(lookup(70, 5), SimTime::from_secs(2));
            pair.mutate(|t| {
                t.delete_matching(&finger_at(0, Value::Id(Uint160::from_u64(1)), "id"))
                    .unwrap();
            });
            pair.poke(lookup(70, 5), SimTime::from_secs(3));
            pair.assert_outputs_match();
            let last = pair.bufs[1].lock().last().unwrap().1.clone();
            let agg = last.field(9).clone();
            match func {
                AggFunc::Min | AggFunc::Max => {
                    assert!(matches!(agg, Value::Int(1)), "{func:?}: {agg:?}");
                    assert_eq!(last.field(8), &Value::str("int"));
                }
                _ => assert!(matches!(agg, Value::Double(d) if d == 1.0 || d == 2.0)),
            }
        }
    }

    /// Deleting every row of one projection frees its slot; a new
    /// projection reuses it, and re-inserting the old one interns afresh.
    #[test]
    fn agg_probe_delete_then_reinsert_reuses_slots() {
        let mut pair = ProbePair::new(TableSpec::new("finger", vec![1]));
        let row = |i: i64, b: u64| finger_at(i, Value::Id(Uint160::from_u64(b)), "x");
        pair.mutate(|t| {
            for (i, b) in [(0, 10), (1, 40), (2, 40), (3, 10)] {
                t.insert(row(i, b), SimTime::from_secs(1)).unwrap();
            }
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(2));
        pair.mutate(|t| {
            t.delete_matching(&row(1, 40)).unwrap();
            t.delete_matching(&row(2, 40)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(3));
        pair.mutate(|t| {
            t.insert(row(4, 60), SimTime::from_secs(4)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(4));
        pair.mutate(|t| {
            t.insert(row(1, 40), SimTime::from_secs(5)).unwrap();
            t.insert(row(4, 50), SimTime::from_secs(5)).unwrap();
        });
        pair.poke(lookup(70, 5), SimTime::from_secs(5));
        pair.assert_outputs_match();
        assert_eq!(pair.tables[1].lock().stats().full_scans, 1);
    }

    /// `sum`/`avg` over doubles must fold in scan order, so the result is
    /// bit-identical to the scan even where addition order changes the
    /// last ulp (`0.1 + 0.2 + 0.3` vs `0.3 + 0.2 + 0.1`) and across a
    /// cancellation (`1e16 + 1.0 - 1e16`).
    #[test]
    fn agg_probe_double_sum_avg_bit_identical_to_scan() {
        let doubles = [0.3, 0.1, 1e16, 0.2, 1.0, -1e16, 0.1, 0.3];
        for func in [AggFunc::Sum, AggFunc::Avg] {
            let mut pair = ProbePair::with(
                TableSpec::new("finger", vec![1]),
                func,
                None,
                Program::compile(&Expr::Field(7)),
            );
            pair.mutate(|t| {
                for (i, d) in doubles.iter().enumerate() {
                    t.insert(
                        finger_at(i as i64, Value::Double(*d), "x"),
                        SimTime::from_secs(1),
                    )
                    .unwrap();
                }
            });
            pair.poke(lookup(70, 5), SimTime::from_secs(2));
            pair.mutate(|t| {
                t.delete_matching(&finger_at(1, Value::Double(0.1), "x"))
                    .unwrap();
                t.insert(finger_at(1, Value::Double(0.7), "x"), SimTime::from_secs(3))
                    .unwrap();
            });
            pair.poke(lookup(70, 5), SimTime::from_secs(3));
            pair.assert_outputs_match();
            let bits = |b: &crate::elements::CollectorHandle| -> Vec<u64> {
                b.lock()
                    .iter()
                    .map(|(_, t)| t.field(9).to_double().unwrap().to_bits())
                    .collect()
            };
            assert_eq!(bits(&pair.bufs[0]), bits(&pair.bufs[1]), "{func:?}");
        }
    }

    /// The interner shares a slot only between strictly equal projections,
    /// treats a missing column as its own value, and reuses freed slots.
    #[test]
    fn projections_intern_strictly_and_reuse_freed_slots() {
        let mut p = Projections::new(vec![2]);
        let row = |i: i64, b: Value| finger_at(i, b, "x");
        let int = p.intern(&row(0, Value::Int(1)));
        let dbl = p.intern(&row(1, Value::Double(1.0)));
        let id = p.intern(&row(2, Value::Id(Uint160::from_u64(1))));
        let neg_zero = p.intern(&row(3, Value::Double(-0.0)));
        let zero = p.intern(&row(4, Value::Double(0.0)));
        let short = p.intern(&Tuple::new("finger", vec![Value::str("n1")]));
        let mut all = vec![int, dbl, id, neg_zero, zero, short];
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 6, "distinct projections shared a slot");
        // Same read column, different unread columns: one slot.
        assert_eq!(p.intern(&finger_at(9, Value::Int(1), "other")), int);
        assert_eq!(p.slots[int].live, 2);

        p.release(dbl);
        assert_eq!(p.free, vec![dbl]);
        assert_eq!(p.intern(&row(5, Value::str("s"))), dbl, "freed slot reused");
        // The old projection comes back in a fresh slot.
        let fresh = p.slots.len();
        assert_eq!(p.intern(&row(6, Value::Double(1.0))), fresh);
        assert_eq!(p.index.len(), p.slots.len());
    }

    #[test]
    fn table_agg_emits_only_on_change() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let mut g = Graph::new();
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(
                t.clone(),
                AggFunc::Count,
                None,
                vec![0],
                "succCount",
            )),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(ins, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: ins,
            port: 0,
        });
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        // Re-inserting the identical tuple does not change the count, so no
        // new aggregate is emitted.
        engine.deliver(s1, SimTime::from_secs(2));
        let s2 = TupleBuilder::new("succ")
            .push("n1")
            .push(9i64)
            .push("n9")
            .build();
        engine.deliver(s2, SimTime::from_secs(3));

        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].values(), &[Value::str("n1"), Value::Int(1)]);
        assert_eq!(emitted[1].values(), &[Value::str("n1"), Value::Int(2)]);
    }

    /// Regression: when every row of a group is deleted, the materialized
    /// aggregate must emit the empty-group value (count 0) instead of
    /// keeping the stale last value forever, and must forget the group so a
    /// re-appearance re-emits from scratch.
    #[test]
    fn table_agg_retracts_when_group_vanishes() {
        let t = table(TableSpec::new("succ", vec![1]), vec![]);
        let mut g = Graph::new();
        // "succ" tuples insert, "zap" tuples (same layout) delete — the
        // planner's insert-delta and delete-delta wiring in miniature.
        let demux = g.add(
            "demux",
            Box::new(Demux::new(vec!["succ".into(), "zap".into()])),
        );
        let ins = g.add("insert", Box::new(Insert::new(t.clone())));
        let del = g.add("delete", Box::new(Delete::new(t.clone())));
        let agg = g.add(
            "count",
            Box::new(TableAgg::new(
                t.clone(),
                AggFunc::Count,
                None,
                vec![0],
                "succCount",
            )),
        );
        let (c, buf) = Collector::new();
        let c = g.add("tap", Box::new(c));
        g.connect(demux, 0, ins, 0);
        g.connect(demux, 1, del, 0);
        g.connect(ins, 0, agg, 0);
        g.connect(del, 0, agg, 0);
        g.connect(agg, 0, c, 0);
        let mut engine = Engine::new(g, "n1", 1);
        engine.set_entry(Route {
            element: demux,
            port: 0,
        });
        engine.start(SimTime::ZERO);

        let s1 = TupleBuilder::new("succ")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(s1.clone(), SimTime::from_secs(1));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );

        // Delete the only row: the group vanishes and the aggregate must
        // report a count of zero, not stay silent at the stale 1.
        let zap = TupleBuilder::new("zap")
            .push("n1")
            .push(5i64)
            .push("n5")
            .build();
        engine.deliver(zap, SimTime::from_secs(2));
        assert!(t.lock().is_empty(), "delete did not remove the row");
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(0)],
            "vanished group did not retract: {emitted:?}"
        );

        // Re-inserting the row re-emits count 1 (the group was dropped from
        // the memo, not left pinned at a stale value).
        engine.deliver(s1, SimTime::from_secs(3));
        let emitted: Vec<Tuple> = buf.lock().iter().map(|(_, t)| t.clone()).collect();
        assert_eq!(
            emitted.last().unwrap().values(),
            &[Value::str("n1"), Value::Int(1)]
        );
    }
}
