//! Constraint and nullability inference (static analysis).
//!
//! A bottom-up abstract interpretation over analyzed logical plans that
//! infers, per plan node:
//!
//! * **nullability** per output attribute (refined below the conservative
//!   [`crate::expr::Expr::nullable`] by filters, join conditions, and
//!   source statistics),
//! * **value domains** per attribute — constant / interval / finite set —
//!   derived from literals, filters, casts, and join semantics, and
//! * a **constraint set**: predicates known true for every row the node
//!   produces (outer-join null-extension handled by dropping the
//!   null-extended side's constraints and flipping its nullability —
//!   domains describe only the *non-null* values an attribute can take,
//!   so null-extension never invalidates a domain).
//!
//! Consumers: the constraint optimizer rules
//! ([`crate::optimizer::constraint_rules`]) and the plan lint engine
//! ([`crate::analysis::lint`]). Scans seed their initial facts from
//! [`crate::source::BaseRelation::column_statistics`] when the source
//! exposes per-column min/max/null-count statistics.

use crate::expr::{AggFunc, BinaryOperator, ColumnRef, Expr, ExprId};
use crate::interpreter;
use crate::plan::{JoinType, LogicalPlan};
use crate::row::Row;
use crate::types::DataType;
use crate::value::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Rows a LocalRelation may have before we stop computing per-column
/// statistics for it (plans embed literal row sets; keep analysis cheap).
const LOCAL_STATS_CAP: usize = 4096;

/// Maximum finite-set size kept precise; larger sets collapse to ranges.
const FINITE_CAP: usize = 32;

// ---------------------------------------------------------------------
// Domains
// ---------------------------------------------------------------------

/// The set of *non-null* values an attribute can take. NULL is tracked
/// separately via [`AttrFacts::nullable`], so outer-join null-extension
/// only flips nullability and never widens a domain.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Domain {
    /// Nothing known.
    #[default]
    Any,
    /// Exactly this (non-null) value.
    Constant(Value),
    /// Closed interval; `None` means unbounded on that side.
    Interval {
        /// Lower bound (inclusive).
        min: Option<Value>,
        /// Upper bound (inclusive).
        max: Option<Value>,
    },
    /// One of these (non-null) values.
    Finite(Vec<Value>),
}

fn vcmp(a: &Value, b: &Value) -> Option<Ordering> {
    a.sql_cmp(b)
}

impl Domain {
    /// Lower/upper bounds of the domain, when known.
    pub fn bounds(&self) -> (Option<Value>, Option<Value>) {
        match self {
            Domain::Any => (None, None),
            Domain::Constant(v) => (Some(v.clone()), Some(v.clone())),
            Domain::Interval { min, max } => (min.clone(), max.clone()),
            Domain::Finite(vs) => {
                let mut min: Option<Value> = None;
                let mut max: Option<Value> = None;
                for v in vs {
                    match &min {
                        Some(m) if vcmp(v, m) != Some(Ordering::Less) => {}
                        _ => min = Some(v.clone()),
                    }
                    match &max {
                        Some(m) if vcmp(v, m) != Some(Ordering::Greater) => {}
                        _ => max = Some(v.clone()),
                    }
                }
                (min, max)
            }
        }
    }

    /// Could the domain contain `v`? Conservative: unknown ⇒ `true`.
    pub fn may_contain(&self, v: &Value) -> bool {
        match self {
            Domain::Any => true,
            Domain::Constant(c) => {
                vcmp(c, v) != Some(Ordering::Less) && vcmp(c, v) != Some(Ordering::Greater)
            }
            Domain::Interval { min, max } => {
                let below = min
                    .as_ref()
                    .map(|m| vcmp(v, m) == Some(Ordering::Less))
                    .unwrap_or(false);
                let above = max
                    .as_ref()
                    .map(|m| vcmp(v, m) == Some(Ordering::Greater))
                    .unwrap_or(false);
                !(below || above)
            }
            Domain::Finite(vs) => vs.iter().any(|c| vcmp(c, v) == Some(Ordering::Equal)),
        }
    }

    /// The single value of a constant domain.
    pub fn as_constant(&self) -> Option<&Value> {
        match self {
            Domain::Constant(v) => Some(v),
            Domain::Finite(vs) if vs.len() == 1 => vs.first(),
            _ => None,
        }
    }

    /// Intersection; `None` means the intersection is provably empty.
    pub fn intersect(&self, other: &Domain) -> Option<Domain> {
        match (self, other) {
            (Domain::Any, d) | (d, Domain::Any) => Some(d.clone()),
            (Domain::Constant(v), d) | (d, Domain::Constant(v)) => {
                if d.may_contain(v) {
                    Some(Domain::Constant(v.clone()))
                } else {
                    None
                }
            }
            (Domain::Finite(vs), d) | (d, Domain::Finite(vs)) => {
                let kept: Vec<Value> = vs.iter().filter(|v| d.may_contain(v)).cloned().collect();
                if kept.is_empty() {
                    None
                } else {
                    Some(Domain::Finite(kept))
                }
            }
            (Domain::Interval { min: a0, max: a1 }, Domain::Interval { min: b0, max: b1 }) => {
                let min = tighter(a0, b0, Ordering::Greater);
                let max = tighter(a1, b1, Ordering::Less);
                if let (Some(lo), Some(hi)) = (&min, &max) {
                    if vcmp(lo, hi) == Some(Ordering::Greater) {
                        return None;
                    }
                }
                Some(Domain::Interval { min, max })
            }
        }
    }

    /// Least upper bound (for `Union` nodes): a domain containing every
    /// value either input can produce.
    pub fn join(&self, other: &Domain) -> Domain {
        match (self, other) {
            (Domain::Any, _) | (_, Domain::Any) => Domain::Any,
            (Domain::Constant(a), Domain::Constant(b)) if vcmp(a, b) == Some(Ordering::Equal) => {
                Domain::Constant(a.clone())
            }
            (Domain::Finite(a), Domain::Finite(b)) if a.len() + b.len() <= FINITE_CAP => {
                let mut out = a.clone();
                for v in b {
                    if !out.iter().any(|o| vcmp(o, v) == Some(Ordering::Equal)) {
                        out.push(v.clone());
                    }
                }
                Domain::Finite(out)
            }
            _ => {
                let (a0, a1) = self.bounds();
                let (b0, b1) = other.bounds();
                let min = match (a0, b0) {
                    (Some(a), Some(b)) => Some(if vcmp(&a, &b) == Some(Ordering::Greater) {
                        b
                    } else {
                        a
                    }),
                    _ => None,
                };
                let max = match (a1, b1) {
                    (Some(a), Some(b)) => Some(if vcmp(&a, &b) == Some(Ordering::Less) {
                        b
                    } else {
                        a
                    }),
                    _ => None,
                };
                if min.is_none() && max.is_none() {
                    Domain::Any
                } else {
                    Domain::Interval { min, max }
                }
            }
        }
    }
}

/// Keep the tighter of two optional bounds (`prefer` = Greater keeps the
/// larger value, i.e. the tighter lower bound).
fn tighter(a: &Option<Value>, b: &Option<Value>, prefer: Ordering) -> Option<Value> {
    match (a, b) {
        (Some(x), Some(y)) => Some(if vcmp(x, y) == Some(prefer) {
            x.clone()
        } else {
            y.clone()
        }),
        (Some(x), None) | (None, Some(x)) => Some(x.clone()),
        (None, None) => None,
    }
}

// ---------------------------------------------------------------------
// Facts
// ---------------------------------------------------------------------

/// What is known about one attribute at one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrFacts {
    /// Can the attribute be NULL here?
    pub nullable: bool,
    /// Domain of its non-null values.
    pub domain: Domain,
}

impl AttrFacts {
    /// Nothing known beyond declared nullability.
    pub fn unknown(nullable: bool) -> Self {
        AttrFacts {
            nullable,
            domain: Domain::Any,
        }
    }
}

/// Everything the analysis knows about one plan node's output.
#[derive(Debug, Clone, Default)]
pub struct NodeFacts {
    /// Per-attribute facts, keyed by [`ExprId`].
    pub attrs: HashMap<ExprId, AttrFacts>,
    /// Predicates known true for every output row.
    pub constraints: Vec<Expr>,
    /// The node provably produces zero rows.
    pub always_empty: bool,
}

impl NodeFacts {
    /// Facts for one attribute, if tracked.
    pub fn attr(&self, id: ExprId) -> Option<&AttrFacts> {
        self.attrs.get(&id)
    }

    /// Is `c` provably non-null at this node?
    pub fn is_non_null(&self, c: &ColumnRef) -> bool {
        self.attr(c.id).map(|f| !f.nullable).unwrap_or(!c.nullable)
    }

    fn set_non_null(&mut self, id: ExprId, declared: bool) {
        self.attrs
            .entry(id)
            .or_insert_with(|| AttrFacts::unknown(declared))
            .nullable = false;
    }

    /// Merge another node's facts in (used for join inputs).
    fn absorb(&mut self, other: &NodeFacts) {
        for (id, f) in &other.attrs {
            self.attrs.insert(*id, f.clone());
        }
    }
}

/// Merged facts of a node's children — the frame the node's own
/// expressions evaluate against.
pub(crate) fn input_frame<'a>(children: impl IntoIterator<Item = &'a NodeFacts>) -> NodeFacts {
    let mut out = NodeFacts::default();
    for f in children {
        out.constraints.extend(f.constraints.iter().cloned());
        out.always_empty |= f.always_empty;
        out.absorb(f);
    }
    out
}

/// Compute one node's facts from its children's (bottom-up step).
pub fn node_facts(plan: &LogicalPlan, children: &[NodeFacts]) -> NodeFacts {
    match plan {
        LogicalPlan::UnresolvedRelation { .. } => NodeFacts::default(),
        LogicalPlan::Scan {
            relation,
            output,
            filters,
        } => {
            let mut f = NodeFacts::default();
            let schema = relation.schema();
            let stats = relation.column_statistics();
            for c in output {
                let mut af = AttrFacts::unknown(c.nullable);
                if let Some(stats) = &stats {
                    if let Ok(i) = schema.index_of(&c.name) {
                        // Partial statistics (e.g. from a partially
                        // evicted cache) describe a subset of the rows:
                        // they prove nothing about nullability, domains,
                        // or emptiness, so they must not seed facts.
                        if let Some(s) = stats.get(i).filter(|s| !s.partial) {
                            if s.null_count == Some(0) {
                                af.nullable = false;
                            }
                            match (&s.min, &s.max) {
                                (Some(lo), Some(hi)) => {
                                    af.domain = if s.null_count == Some(0)
                                        && vcmp(lo, hi) == Some(Ordering::Equal)
                                    {
                                        Domain::Constant(lo.clone())
                                    } else {
                                        Domain::Interval {
                                            min: Some(lo.clone()),
                                            max: Some(hi.clone()),
                                        }
                                    };
                                }
                                _ => {
                                    // No non-null values at all.
                                    if s.row_count.is_some() && s.row_count == s.null_count {
                                        af.domain = Domain::Finite(vec![]);
                                    }
                                }
                            }
                            if s.row_count == Some(0) {
                                f.always_empty = true;
                            }
                        }
                    }
                }
                f.attrs.insert(c.id, af);
            }
            for conj in filters.iter().flat_map(split_conjuncts_ref) {
                apply_conjunct(&mut f, &conj);
            }
            f
        }
        LogicalPlan::External { output, .. } => {
            let mut f = NodeFacts::default();
            for c in output {
                f.attrs.insert(c.id, AttrFacts::unknown(c.nullable));
            }
            f
        }
        LogicalPlan::LocalRelation { output, rows } => {
            let mut f = NodeFacts {
                always_empty: rows.is_empty(),
                ..Default::default()
            };
            for (i, c) in output.iter().enumerate() {
                let mut af = AttrFacts::unknown(c.nullable);
                if !rows.is_empty() && rows.len() <= LOCAL_STATS_CAP {
                    let mut any_null = false;
                    let mut min: Option<Value> = None;
                    let mut max: Option<Value> = None;
                    for r in rows.iter() {
                        let v = r.get(i);
                        if v.is_null() {
                            any_null = true;
                            continue;
                        }
                        match &min {
                            Some(m) if vcmp(v, m) != Some(Ordering::Less) => {}
                            _ => min = Some(v.clone()),
                        }
                        match &max {
                            Some(m) if vcmp(v, m) != Some(Ordering::Greater) => {}
                            _ => max = Some(v.clone()),
                        }
                    }
                    af.nullable = any_null;
                    if let (Some(lo), Some(hi)) = (min, max) {
                        af.domain = if !any_null && vcmp(&lo, &hi) == Some(Ordering::Equal) {
                            Domain::Constant(lo)
                        } else {
                            Domain::Interval {
                                min: Some(lo),
                                max: Some(hi),
                            }
                        };
                    }
                }
                f.attrs.insert(c.id, af);
            }
            f
        }
        LogicalPlan::Project { exprs, .. } => {
            let input = &children[0];
            let mut f = NodeFacts {
                always_empty: input.always_empty,
                ..Default::default()
            };
            let mut passthrough: Vec<ExprId> = Vec::new();
            for e in exprs {
                if let Ok(attr) = e.to_attribute() {
                    f.attrs.insert(attr.id, expr_facts(e, input));
                    if matches!(e, Expr::Column(_)) {
                        passthrough.push(attr.id);
                    }
                }
            }
            f.constraints = input
                .constraints
                .iter()
                .filter(|c| c.references().iter().all(|r| passthrough.contains(&r.id)))
                .cloned()
                .collect();
            f
        }
        LogicalPlan::Filter { predicate, .. } => {
            let mut f = children[0].clone();
            for conj in split_conjuncts_ref(predicate) {
                apply_conjunct(&mut f, &conj);
                if !f.constraints.contains(&conj) {
                    f.constraints.push(conj);
                }
            }
            f
        }
        LogicalPlan::Join {
            join_type,
            condition,
            left,
            right,
        } => {
            let (lf, rf) = (&children[0], &children[1]);
            let mut f = NodeFacts::default();
            f.absorb(lf);
            f.absorb(rf);
            // Null-extension: flip nullability of the outer side(s); their
            // domains stay valid (domains describe non-null values only).
            let nullify = |f: &mut NodeFacts, side: &LogicalPlan| {
                for c in side.output() {
                    if let Some(af) = f.attrs.get_mut(&c.id) {
                        af.nullable = true;
                    }
                }
            };
            match join_type {
                JoinType::Inner => {
                    f.constraints.extend(lf.constraints.iter().cloned());
                    f.constraints.extend(rf.constraints.iter().cloned());
                    for conj in condition.iter().flat_map(split_conjuncts_ref) {
                        apply_conjunct(&mut f, &conj);
                        if !f.constraints.contains(&conj) {
                            f.constraints.push(conj);
                        }
                    }
                    f.always_empty = lf.always_empty || rf.always_empty;
                }
                JoinType::Cross => {
                    f.constraints.extend(lf.constraints.iter().cloned());
                    f.constraints.extend(rf.constraints.iter().cloned());
                    f.always_empty = lf.always_empty || rf.always_empty;
                }
                JoinType::Left => {
                    f.constraints.extend(lf.constraints.iter().cloned());
                    nullify(&mut f, right);
                    f.always_empty = lf.always_empty;
                }
                JoinType::Right => {
                    f.constraints.extend(rf.constraints.iter().cloned());
                    nullify(&mut f, left);
                    f.always_empty = rf.always_empty;
                }
                JoinType::Full => {
                    nullify(&mut f, left);
                    nullify(&mut f, right);
                    f.always_empty = lf.always_empty && rf.always_empty;
                }
            }
            f
        }
        LogicalPlan::Aggregate {
            groupings,
            aggregates,
            ..
        } => {
            let input = &children[0];
            let mut f = NodeFacts::default();
            let global = groupings.is_empty();
            // A global aggregate over empty input still yields one row.
            f.always_empty = input.always_empty && !global;
            let mut passthrough: Vec<ExprId> = Vec::new();
            for e in aggregates {
                if let Ok(attr) = e.to_attribute() {
                    f.attrs.insert(attr.id, agg_expr_facts(e, input, global));
                    if matches!(e, Expr::Column(_)) {
                        passthrough.push(attr.id);
                    }
                }
            }
            f.constraints = input
                .constraints
                .iter()
                .filter(|c| c.references().iter().all(|r| passthrough.contains(&r.id)))
                .cloned()
                .collect();
            f
        }
        LogicalPlan::Sort { .. } | LogicalPlan::Distinct { .. } | LogicalPlan::Sample { .. } => {
            children[0].clone()
        }
        LogicalPlan::Window { window_exprs, .. } => {
            // Every input column passes through untouched, so the input's
            // facts and constraints stay valid; the appended window
            // columns get fresh unknown facts.
            let mut f = children[0].clone();
            for e in window_exprs {
                if let Ok(attr) = e.to_attribute() {
                    f.attrs.insert(attr.id, AttrFacts::unknown(attr.nullable));
                }
            }
            f
        }
        LogicalPlan::Limit { n, .. } => {
            let mut f = children[0].clone();
            if *n == 0 {
                f.always_empty = true;
            }
            f
        }
        LogicalPlan::SubqueryAlias { .. } => children[0].clone(),
        LogicalPlan::Union { inputs } => {
            let mut f = NodeFacts {
                always_empty: !children.is_empty() && children.iter().all(|c| c.always_empty),
                ..Default::default()
            };
            if let Some(first) = inputs.first() {
                let first_out = first.output();
                let outs: Vec<Vec<ColumnRef>> = inputs.iter().map(|i| i.output()).collect();
                for (pos, c) in first_out.iter().enumerate() {
                    let mut merged: Option<AttrFacts> = None;
                    for (child, out) in children.iter().zip(&outs) {
                        let af = out
                            .get(pos)
                            .map(|cc| {
                                child
                                    .attr(cc.id)
                                    .cloned()
                                    .unwrap_or_else(|| AttrFacts::unknown(cc.nullable))
                            })
                            .unwrap_or_else(|| AttrFacts::unknown(true));
                        merged = Some(match merged {
                            None => af,
                            Some(m) => AttrFacts {
                                nullable: m.nullable || af.nullable,
                                domain: m.domain.join(&af.domain),
                            },
                        });
                    }
                    f.attrs.insert(
                        c.id,
                        merged.unwrap_or_else(|| AttrFacts::unknown(c.nullable)),
                    );
                }
            }
            f
        }
    }
}

/// `split_conjuncts` over a borrowed expression.
fn split_conjuncts_ref(e: &Expr) -> Vec<Expr> {
    crate::optimizer::split_conjuncts(e)
}

// ---------------------------------------------------------------------
// Expression facts
// ---------------------------------------------------------------------

/// Facts for an expression evaluated against `input` facts.
pub fn expr_facts(e: &Expr, input: &NodeFacts) -> AttrFacts {
    // Constant subexpressions (including analyzer-inserted casts of
    // literals) evaluate at analysis time.
    if e.is_resolved() && e.foldable() {
        if let Ok(v) = interpreter::eval(e, &Row::empty()) {
            return if v.is_null() {
                AttrFacts {
                    nullable: true,
                    domain: Domain::Any,
                }
            } else {
                AttrFacts {
                    nullable: false,
                    domain: Domain::Constant(v),
                }
            };
        }
    }
    match e {
        Expr::Literal(v) => {
            if v.is_null() {
                AttrFacts {
                    nullable: true,
                    domain: Domain::Any,
                }
            } else {
                AttrFacts {
                    nullable: false,
                    domain: Domain::Constant(v.clone()),
                }
            }
        }
        Expr::Column(c) => input
            .attr(c.id)
            .cloned()
            .unwrap_or_else(|| AttrFacts::unknown(c.nullable)),
        Expr::Alias { child, .. } => expr_facts(child, input),
        Expr::Cast { expr, dtype } => {
            let inner = expr_facts(expr, input);
            let src = expr.data_type().unwrap_or(DataType::Null);
            let nullable = inner.nullable || cast_may_yield_null(&src, dtype);
            let domain = if lossless_cast(&src, dtype) {
                cast_domain(&inner.domain, dtype)
            } else {
                Domain::Any
            };
            AttrFacts { nullable, domain }
        }
        Expr::BinaryOp { left, op, right } => {
            let lf = expr_facts(left, input);
            let rf = expr_facts(right, input);
            let mut nullable = lf.nullable || rf.nullable;
            if matches!(op, BinaryOperator::Div | BinaryOperator::Mod) {
                // Division/modulo by zero yields NULL in this engine.
                nullable |= rf.domain.may_contain(&Value::Long(0))
                    || rf.domain.may_contain(&Value::Double(0.0));
            }
            AttrFacts {
                nullable,
                domain: Domain::Any,
            }
        }
        Expr::Negate(inner) | Expr::UnscaledValue(inner) => AttrFacts {
            nullable: expr_facts(inner, input).nullable,
            domain: Domain::Any,
        },
        Expr::Not(inner) => AttrFacts {
            nullable: expr_facts(inner, input).nullable,
            domain: Domain::Any,
        },
        Expr::IsNull(_) | Expr::IsNotNull(_) => AttrFacts {
            nullable: false,
            domain: Domain::Any,
        },
        _ => AttrFacts::unknown(e.nullable()),
    }
}

/// Facts for an `Aggregate` output expression (`global` = no groupings,
/// where an empty input makes every aggregate NULL except COUNT).
fn agg_expr_facts(e: &Expr, input: &NodeFacts, global: bool) -> AttrFacts {
    match e {
        Expr::Alias { child, .. } => agg_expr_facts(child, input, global),
        Expr::Agg { func, arg, .. } => match func {
            AggFunc::Count => AttrFacts {
                nullable: false,
                domain: Domain::Interval {
                    min: Some(Value::Long(0)),
                    max: None,
                },
            },
            AggFunc::Min | AggFunc::Max => {
                let af = arg
                    .as_ref()
                    .map(|a| expr_facts(a, input))
                    .unwrap_or_else(|| AttrFacts::unknown(true));
                AttrFacts {
                    nullable: af.nullable || global,
                    domain: af.domain,
                }
            }
            AggFunc::Sum | AggFunc::Avg => {
                let af = arg
                    .as_ref()
                    .map(|a| expr_facts(a, input))
                    .unwrap_or_else(|| AttrFacts::unknown(true));
                AttrFacts {
                    nullable: af.nullable || global,
                    domain: Domain::Any,
                }
            }
        },
        other => expr_facts(other, input),
    }
}

/// Can `CAST(src AS dst)` produce NULL from a non-null input?
pub fn cast_may_yield_null(src: &DataType, dst: &DataType) -> bool {
    src == &DataType::String && dst != &DataType::String
}

/// Value-preserving casts: every source value maps to a distinct target
/// value and back ([`Domain`]s survive them; comparisons can unwrap them).
pub fn lossless_cast(src: &DataType, dst: &DataType) -> bool {
    use DataType::*;
    src == dst || matches!((src, dst), (Int, Long) | (Int, Double) | (Float, Double))
}

/// A numeric cast that can silently lose precision or truncate (the lint
/// engine's "lossy numeric cast" class). Analyzer-inserted widenings
/// (Int→Long, Int/Long→Double, Float→Double) are deliberately excluded.
pub fn lossy_numeric_cast(src: &DataType, dst: &DataType) -> bool {
    use DataType::*;
    matches!(
        (src, dst),
        (Long, Int)
            | (Double, Int)
            | (Double, Long)
            | (Double, Float)
            | (Float, Int)
            | (Float, Long)
            | (Decimal(_, _), Int)
            | (Decimal(_, _), Long)
    )
}

fn cast_value(v: &Value, dtype: &DataType) -> Option<Value> {
    interpreter::eval(
        &Expr::Cast {
            expr: Box::new(Expr::Literal(v.clone())),
            dtype: dtype.clone(),
        },
        &Row::empty(),
    )
    .ok()
    .filter(|v| !v.is_null())
}

fn cast_domain(d: &Domain, dtype: &DataType) -> Domain {
    let map = |v: &Value| cast_value(v, dtype);
    match d {
        Domain::Any => Domain::Any,
        Domain::Constant(v) => map(v).map(Domain::Constant).unwrap_or(Domain::Any),
        Domain::Interval { min, max } => {
            let lo = min.as_ref().map(&map);
            let hi = max.as_ref().map(&map);
            match (lo, hi) {
                (Some(None), _) | (_, Some(None)) => Domain::Any,
                (lo, hi) => Domain::Interval {
                    min: lo.flatten(),
                    max: hi.flatten(),
                },
            }
        }
        Domain::Finite(vs) => {
            let mapped: Option<Vec<Value>> = vs.iter().map(map).collect();
            mapped.map(Domain::Finite).unwrap_or(Domain::Any)
        }
    }
}

// ---------------------------------------------------------------------
// Conjunct application (filter / join-condition refinement)
// ---------------------------------------------------------------------

/// Refine `f` with the knowledge that `conjunct` evaluates TRUE for every
/// surviving row. Sets `always_empty` when the conjunct contradicts the
/// already-known domains.
pub fn apply_conjunct(f: &mut NodeFacts, conjunct: &Expr) {
    // Any column on a strict path of a null-rejecting conjunct is
    // non-null in the rows that survive.
    for c in null_rejected_columns(conjunct) {
        f.set_non_null(c.id, c.nullable);
    }
    match conjunct {
        Expr::BinaryOp { left, op, right } if op.is_comparison() => match (&**left, &**right) {
            (Expr::Column(c), rhs) if rhs.is_resolved() && rhs.foldable() => {
                if let Ok(v) = interpreter::eval(rhs, &Row::empty()) {
                    refine_column(f, c, *op, &v);
                }
            }
            (lhs, Expr::Column(c)) if lhs.is_resolved() && lhs.foldable() => {
                if let Ok(v) = interpreter::eval(lhs, &Row::empty()) {
                    refine_column(f, c, flip(*op), &v);
                }
            }
            (Expr::Column(a), Expr::Column(b)) if *op == BinaryOperator::Eq => {
                let da = f.attr(a.id).map(|x| x.domain.clone()).unwrap_or_default();
                let db = f.attr(b.id).map(|x| x.domain.clone()).unwrap_or_default();
                match da.intersect(&db) {
                    Some(d) => {
                        if let Some(af) = f.attrs.get_mut(&a.id) {
                            af.domain = d.clone();
                        }
                        if let Some(bf) = f.attrs.get_mut(&b.id) {
                            bf.domain = d;
                        }
                    }
                    None => f.always_empty = true,
                }
            }
            _ => {}
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            if let Expr::Column(c) = &**expr {
                let vals: Option<Vec<Value>> = list
                    .iter()
                    .map(|e| match e {
                        Expr::Literal(v) if !v.is_null() => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                if let Some(vals) = vals {
                    if vals.len() <= FINITE_CAP {
                        intersect_column(f, c, Domain::Finite(vals));
                    }
                }
            }
        }
        Expr::IsNull(inner) => {
            if let Expr::Column(c) = &**inner {
                if f.is_non_null(c) {
                    f.always_empty = true;
                }
            }
        }
        // Bare boolean column used as a predicate.
        Expr::Column(c) if c.dtype == DataType::Boolean => {
            intersect_column(f, c, Domain::Constant(Value::Boolean(true)));
        }
        Expr::Not(inner) => {
            if let Expr::Column(c) = &**inner {
                if c.dtype == DataType::Boolean {
                    intersect_column(f, c, Domain::Constant(Value::Boolean(false)));
                }
            }
        }
        _ => {}
    }
}

fn flip(op: BinaryOperator) -> BinaryOperator {
    match op {
        BinaryOperator::Lt => BinaryOperator::Gt,
        BinaryOperator::LtEq => BinaryOperator::GtEq,
        BinaryOperator::Gt => BinaryOperator::Lt,
        BinaryOperator::GtEq => BinaryOperator::LtEq,
        other => other,
    }
}

fn refine_column(f: &mut NodeFacts, c: &ColumnRef, op: BinaryOperator, v: &Value) {
    if v.is_null() {
        return;
    }
    let refinement = match op {
        BinaryOperator::Eq => Some(Domain::Constant(v.clone())),
        BinaryOperator::Lt | BinaryOperator::LtEq => {
            // Closed-interval over-approximation of `< v` is sound.
            Some(Domain::Interval {
                min: None,
                max: Some(v.clone()),
            })
        }
        BinaryOperator::Gt | BinaryOperator::GtEq => Some(Domain::Interval {
            min: Some(v.clone()),
            max: None,
        }),
        BinaryOperator::NotEq => {
            let cur = f.attr(c.id).map(|x| x.domain.clone()).unwrap_or_default();
            match cur {
                Domain::Constant(cv) if vcmp(&cv, v) == Some(Ordering::Equal) => {
                    f.always_empty = true;
                }
                Domain::Finite(vs) => {
                    let kept: Vec<Value> = vs
                        .into_iter()
                        .filter(|x| vcmp(x, v) != Some(Ordering::Equal))
                        .collect();
                    if kept.is_empty() {
                        f.always_empty = true;
                    } else if let Some(af) = f.attrs.get_mut(&c.id) {
                        af.domain = Domain::Finite(kept);
                    }
                }
                _ => {}
            }
            None
        }
        _ => None,
    };
    if let Some(d) = refinement {
        intersect_column(f, c, d);
    }
}

fn intersect_column(f: &mut NodeFacts, c: &ColumnRef, d: Domain) {
    let cur = f.attr(c.id).map(|x| x.domain.clone()).unwrap_or_default();
    match cur.intersect(&d) {
        Some(nd) => {
            f.attrs
                .entry(c.id)
                .or_insert_with(|| AttrFacts::unknown(c.nullable))
                .domain = nd;
        }
        None => f.always_empty = true,
    }
}

/// Columns that, when NULL, prevent `e` from evaluating TRUE (so a filter
/// on `e` implies `IS NOT NULL` on each of them).
pub fn null_rejected_columns(e: &Expr) -> Vec<ColumnRef> {
    match e {
        Expr::Column(c) if c.dtype == DataType::Boolean => vec![c.clone()],
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => {
            let mut out = null_rejected_columns(left);
            for c in null_rejected_columns(right) {
                if !out.iter().any(|o| o.id == c.id) {
                    out.push(c);
                }
            }
            out
        }
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Or,
            right,
        } => {
            let l = null_rejected_columns(left);
            let r = null_rejected_columns(right);
            l.into_iter()
                .filter(|c| r.iter().any(|o| o.id == c.id))
                .collect()
        }
        Expr::BinaryOp { left, op, right } if op.is_comparison() || op.is_arithmetic() => {
            let mut out = strict_columns(left);
            for c in strict_columns(right) {
                if !out.iter().any(|o| o.id == c.id) {
                    out.push(c);
                }
            }
            out
        }
        Expr::IsNotNull(inner) => strict_columns(inner),
        Expr::Not(inner) => match &**inner {
            Expr::IsNull(x) => strict_columns(x),
            Expr::BinaryOp { op, .. } if op.is_comparison() => null_rejected_columns(inner),
            Expr::InList { .. } | Expr::Like { .. } => null_rejected_columns(inner),
            _ => vec![],
        },
        Expr::InList { expr, .. } => strict_columns(expr),
        Expr::Like { expr, pattern, .. } => {
            let mut out = strict_columns(expr);
            for c in strict_columns(pattern) {
                if !out.iter().any(|o| o.id == c.id) {
                    out.push(c);
                }
            }
            out
        }
        _ => vec![],
    }
}

/// Columns reachable through strict (NULL-in ⇒ NULL-out) nodes only.
fn strict_columns(e: &Expr) -> Vec<ColumnRef> {
    match e {
        Expr::Column(c) => vec![c.clone()],
        Expr::Alias { child, .. }
        | Expr::Cast { expr: child, .. }
        | Expr::Negate(child)
        | Expr::UnscaledValue(child) => strict_columns(child),
        Expr::BinaryOp { left, op, right } if op.is_arithmetic() => {
            let mut out = strict_columns(left);
            for c in strict_columns(right) {
                if !out.iter().any(|o| o.id == c.id) {
                    out.push(c);
                }
            }
            out
        }
        _ => vec![],
    }
}

// ---------------------------------------------------------------------
// Static predicate decisions
// ---------------------------------------------------------------------

/// Outcome of deciding a predicate against a node's facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determination {
    /// Evaluates TRUE for every row.
    AlwaysTrue,
    /// Evaluates FALSE (not NULL) for every row.
    AlwaysFalse,
    /// Never evaluates TRUE (FALSE or NULL for every row).
    NeverTrue,
    /// Not statically decidable.
    Unknown,
}

impl Determination {
    /// The predicate can never be TRUE — a filter on it yields no rows.
    pub fn never_true(self) -> bool {
        matches!(self, Determination::AlwaysFalse | Determination::NeverTrue)
    }
}

/// Decide `pred` against `facts` (the facts of the node the predicate's
/// input rows come from).
pub fn determine(pred: &Expr, facts: &NodeFacts) -> Determination {
    if facts.constraints.contains(pred) {
        return Determination::AlwaysTrue;
    }
    if pred.is_resolved() && pred.foldable() {
        return match interpreter::eval(pred, &Row::empty()) {
            Ok(Value::Boolean(true)) => Determination::AlwaysTrue,
            Ok(Value::Boolean(false)) => Determination::AlwaysFalse,
            Ok(Value::Null) => Determination::NeverTrue,
            _ => Determination::Unknown,
        };
    }
    match pred {
        Expr::Literal(Value::Boolean(true)) => Determination::AlwaysTrue,
        Expr::Literal(Value::Boolean(false)) => Determination::AlwaysFalse,
        Expr::Literal(Value::Null) => Determination::NeverTrue,
        Expr::BinaryOp {
            left,
            op: BinaryOperator::And,
            right,
        } => {
            let (l, r) = (determine(left, facts), determine(right, facts));
            match (l, r) {
                (Determination::AlwaysTrue, Determination::AlwaysTrue) => Determination::AlwaysTrue,
                // FALSE AND x = FALSE, even for x = NULL.
                (Determination::AlwaysFalse, _) | (_, Determination::AlwaysFalse) => {
                    Determination::AlwaysFalse
                }
                (Determination::NeverTrue, _) | (_, Determination::NeverTrue) => {
                    Determination::NeverTrue
                }
                _ => Determination::Unknown,
            }
        }
        Expr::BinaryOp {
            left,
            op: BinaryOperator::Or,
            right,
        } => {
            let (l, r) = (determine(left, facts), determine(right, facts));
            match (l, r) {
                (Determination::AlwaysTrue, _) | (_, Determination::AlwaysTrue) => {
                    Determination::AlwaysTrue
                }
                (Determination::AlwaysFalse, Determination::AlwaysFalse) => {
                    Determination::AlwaysFalse
                }
                (l, r) if l.never_true() && r.never_true() => Determination::NeverTrue,
                _ => Determination::Unknown,
            }
        }
        Expr::Not(inner) => match determine(inner, facts) {
            Determination::AlwaysTrue => Determination::AlwaysFalse,
            Determination::AlwaysFalse => Determination::AlwaysTrue,
            _ => Determination::Unknown,
        },
        Expr::IsNotNull(inner) => {
            if !expr_facts(inner, facts).nullable {
                Determination::AlwaysTrue
            } else {
                Determination::Unknown
            }
        }
        Expr::IsNull(inner) => {
            if !expr_facts(inner, facts).nullable {
                Determination::AlwaysFalse
            } else {
                Determination::Unknown
            }
        }
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            let lf = expr_facts(left, facts);
            let rf = expr_facts(right, facts);
            match compare_domains(&lf.domain, *op, &rf.domain) {
                Some(true) => {
                    if !lf.nullable && !rf.nullable {
                        Determination::AlwaysTrue
                    } else {
                        Determination::Unknown
                    }
                }
                Some(false) => {
                    if !lf.nullable && !rf.nullable {
                        Determination::AlwaysFalse
                    } else {
                        Determination::NeverTrue
                    }
                }
                None => Determination::Unknown,
            }
        }
        Expr::Column(c) if c.dtype == DataType::Boolean => {
            let af = expr_facts(pred, facts);
            match af.domain.as_constant() {
                Some(Value::Boolean(true)) if !af.nullable => Determination::AlwaysTrue,
                Some(Value::Boolean(false)) if !af.nullable => Determination::AlwaysFalse,
                Some(Value::Boolean(false)) => Determination::NeverTrue,
                _ => Determination::Unknown,
            }
        }
        _ => Determination::Unknown,
    }
}

/// Does `a op b` hold for every (`Some(true)`) / no (`Some(false)`) pair
/// of non-null values drawn from the two domains?
pub fn compare_domains(a: &Domain, op: BinaryOperator, b: &Domain) -> Option<bool> {
    let (a0, a1) = a.bounds();
    let (b0, b1) = b.bounds();
    let lt = |x: &Option<Value>, y: &Option<Value>| match (x, y) {
        (Some(x), Some(y)) => vcmp(x, y) == Some(Ordering::Less),
        _ => false,
    };
    let le = |x: &Option<Value>, y: &Option<Value>| match (x, y) {
        (Some(x), Some(y)) => matches!(vcmp(x, y), Some(Ordering::Less | Ordering::Equal)),
        _ => false,
    };
    let gt = |x: &Option<Value>, y: &Option<Value>| match (x, y) {
        (Some(x), Some(y)) => vcmp(x, y) == Some(Ordering::Greater),
        _ => false,
    };
    let ge = |x: &Option<Value>, y: &Option<Value>| match (x, y) {
        (Some(x), Some(y)) => matches!(vcmp(x, y), Some(Ordering::Greater | Ordering::Equal)),
        _ => false,
    };
    let eq_always = match (a.as_constant(), b.as_constant()) {
        (Some(x), Some(y)) => vcmp(x, y) == Some(Ordering::Equal),
        _ => false,
    };
    let eq_never = {
        let disjoint_bounds = lt(&a1, &b0) || gt(&a0, &b1);
        let finite_disjoint = match (a, b) {
            (Domain::Finite(_) | Domain::Constant(_), _) => {
                let (vals, other) = (a, b);
                finite_values(vals)
                    .map(|vs| vs.iter().all(|v| !other.may_contain(v)))
                    .unwrap_or(false)
            }
            (_, Domain::Finite(_) | Domain::Constant(_)) => finite_values(b)
                .map(|vs| vs.iter().all(|v| !a.may_contain(v)))
                .unwrap_or(false),
            _ => false,
        };
        disjoint_bounds || finite_disjoint
    };
    match op {
        BinaryOperator::Eq => {
            if eq_always {
                Some(true)
            } else if eq_never {
                Some(false)
            } else {
                None
            }
        }
        BinaryOperator::NotEq => {
            if eq_never {
                Some(true)
            } else if eq_always {
                Some(false)
            } else {
                None
            }
        }
        BinaryOperator::Lt => {
            if lt(&a1, &b0) {
                Some(true)
            } else if ge(&a0, &b1) {
                Some(false)
            } else {
                None
            }
        }
        BinaryOperator::LtEq => {
            if le(&a1, &b0) {
                Some(true)
            } else if gt(&a0, &b1) {
                Some(false)
            } else {
                None
            }
        }
        BinaryOperator::Gt => {
            if gt(&a0, &b1) {
                Some(true)
            } else if le(&a1, &b0) {
                Some(false)
            } else {
                None
            }
        }
        BinaryOperator::GtEq => {
            if ge(&a0, &b1) {
                Some(true)
            } else if lt(&a1, &b0) {
                Some(false)
            } else {
                None
            }
        }
        _ => None,
    }
}

fn finite_values(d: &Domain) -> Option<&[Value]> {
    match d {
        Domain::Finite(vs) => Some(vs),
        Domain::Constant(v) => Some(std::slice::from_ref(v)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Whole-plan analysis with provenance (lint substrate)
// ---------------------------------------------------------------------

/// One analyzed plan node: pre-order id, display name, its facts, and the
/// ids of its children.
#[derive(Debug, Clone)]
pub struct AnalyzedNode {
    /// Pre-order id (root = 0) — stable provenance for diagnostics.
    pub id: usize,
    /// Operator display name (`Filter`, `Join[INNER]`, …).
    pub op: String,
    /// Facts for the node's output.
    pub facts: NodeFacts,
    /// Pre-order ids of the node's children, in order.
    pub children: Vec<usize>,
}

/// Facts for every node of a plan, indexed by pre-order id.
#[derive(Debug, Clone, Default)]
pub struct ConstraintAnalysis {
    /// Nodes in pre-order (`nodes[i].id == i`).
    pub nodes: Vec<AnalyzedNode>,
}

impl ConstraintAnalysis {
    /// Merged facts of node `id`'s children (the frame its expressions
    /// evaluate against).
    pub fn input_facts(&self, id: usize) -> NodeFacts {
        input_frame(
            self.nodes[id]
                .children
                .iter()
                .map(|&c| &self.nodes[c].facts),
        )
    }
}

/// Analyze every node of `plan`, assigning pre-order ids.
pub fn analyze_plan(plan: &LogicalPlan) -> ConstraintAnalysis {
    fn go(plan: &LogicalPlan, analysis: &mut ConstraintAnalysis) -> (usize, NodeFacts) {
        let id = analysis.nodes.len();
        analysis.nodes.push(AnalyzedNode {
            id,
            op: op_name(plan),
            facts: NodeFacts::default(),
            children: vec![],
        });
        let mut child_ids = Vec::new();
        let mut child_facts = Vec::new();
        for c in plan.children() {
            let (cid, cf) = go(&c, analysis);
            child_ids.push(cid);
            child_facts.push(cf);
        }
        let f = node_facts(plan, &child_facts);
        analysis.nodes[id].children = child_ids;
        analysis.nodes[id].facts = f.clone();
        (id, f)
    }
    let mut analysis = ConstraintAnalysis::default();
    go(plan, &mut analysis);
    analysis
}

/// Display name for a plan node (diagnostic provenance).
pub fn op_name(plan: &LogicalPlan) -> String {
    match plan {
        LogicalPlan::UnresolvedRelation { name } => format!("UnresolvedRelation({name})"),
        LogicalPlan::Scan { relation, .. } => format!("Scan({})", relation.name()),
        LogicalPlan::External { .. } => "External".into(),
        LogicalPlan::LocalRelation { rows, .. } => {
            if rows.is_empty() {
                "LocalRelation(empty)".into()
            } else {
                "LocalRelation".into()
            }
        }
        LogicalPlan::Project { .. } => "Project".into(),
        LogicalPlan::Filter { .. } => "Filter".into(),
        LogicalPlan::Join { join_type, .. } => format!("Join[{}]", join_type.keyword()),
        LogicalPlan::Aggregate { .. } => "Aggregate".into(),
        LogicalPlan::Sort { .. } => "Sort".into(),
        LogicalPlan::Window { .. } => "Window".into(),
        LogicalPlan::Limit { n, .. } => format!("Limit({n})"),
        LogicalPlan::Union { .. } => "Union".into(),
        LogicalPlan::Distinct { .. } => "Distinct".into(),
        LogicalPlan::SubqueryAlias { alias, .. } => format!("SubqueryAlias({alias})"),
        LogicalPlan::Sample { .. } => "Sample".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::builders::{col, lit};
    use std::sync::Arc;

    /// Facts for `plan`'s output.
    fn facts(plan: &LogicalPlan) -> NodeFacts {
        analyze_plan(plan).nodes.swap_remove(0).facts
    }

    fn leaf(cols: &[(&str, DataType, bool)]) -> (LogicalPlan, Vec<ColumnRef>) {
        let output: Vec<ColumnRef> = cols
            .iter()
            .map(|(n, t, nl)| ColumnRef::new(*n, t.clone(), *nl))
            .collect();
        (
            LogicalPlan::LocalRelation {
                output: output.clone(),
                rows: Arc::new(vec![
                    Row::new(vec![Value::Long(1), Value::Long(2)]),
                    Row::new(vec![Value::Long(100), Value::Long(200)]),
                ]),
            },
            output,
        )
    }

    fn two_col_leaf() -> (LogicalPlan, ColumnRef, ColumnRef) {
        let (p, out) = leaf(&[("a", DataType::Long, true), ("b", DataType::Long, false)]);
        (p, out[0].clone(), out[1].clone())
    }

    #[test]
    fn filter_refines_nullability_and_domain() {
        let (p, a, _) = two_col_leaf();
        let plan = p.filter(Expr::Column(a.clone()).gt(lit(5i64)));
        let f = facts(&plan);
        assert!(f.is_non_null(&a), "a > 5 rejects NULL a");
        let af = f.attr(a.id).unwrap();
        // The local-relation seed bounds a to [1, 100]; the filter tightens
        // the lower bound.
        assert_eq!(
            af.domain,
            Domain::Interval {
                min: Some(Value::Long(5)),
                max: Some(Value::Long(100))
            }
        );
    }

    #[test]
    fn contradictory_filters_mark_empty() {
        let (p, a, _) = two_col_leaf();
        let plan = p.filter(
            Expr::Column(a.clone())
                .gt(lit(10i64))
                .and(Expr::Column(a.clone()).lt(lit(0i64))),
        );
        let f = facts(&plan);
        assert!(f.always_empty);
    }

    #[test]
    fn outer_join_flips_nullability_keeps_domains() {
        let (l, a, _) = two_col_leaf();
        let (r0, rout) = leaf(&[("k", DataType::Long, false), ("v", DataType::Long, false)]);
        let k = rout[0].clone();
        let r = r0.filter(Expr::Column(k.clone()).eq(lit(7i64)));
        let plan = l.join(
            r,
            JoinType::Left,
            Some(Expr::Column(a.clone()).eq(Expr::Column(k.clone()))),
        );
        let f = facts(&plan);
        let kf = f.attr(k.id).unwrap();
        assert!(kf.nullable, "left join null-extends the right side");
        assert_eq!(
            kf.domain,
            Domain::Constant(Value::Long(7)),
            "domain survives"
        );
        // Right-side constraints are dropped.
        assert!(f.constraints.is_empty());
    }

    #[test]
    fn inner_join_keys_become_non_null() {
        let (l, a, _) = two_col_leaf();
        let (r, rout) = leaf(&[("k", DataType::Long, true), ("v", DataType::Long, false)]);
        let k = rout[0].clone();
        let plan = l.join(
            r,
            JoinType::Inner,
            Some(Expr::Column(a.clone()).eq(Expr::Column(k.clone()))),
        );
        let f = facts(&plan);
        assert!(f.is_non_null(&a));
        assert!(f.is_non_null(&k));
    }

    #[test]
    fn determine_decides_domain_comparisons() {
        let (p, a, _) = two_col_leaf();
        let plan = p.filter(Expr::Column(a.clone()).gt(lit(10i64)));
        let f = facts(&plan);
        assert_eq!(
            determine(&Expr::Column(a.clone()).gt(lit(5i64)), &f),
            Determination::AlwaysTrue
        );
        assert_eq!(
            determine(&Expr::Column(a.clone()).lt(lit(5i64)), &f),
            Determination::AlwaysFalse
        );
        assert_eq!(
            determine(&Expr::IsNotNull(Box::new(Expr::Column(a.clone()))), &f),
            Determination::AlwaysTrue
        );
    }

    #[test]
    fn nullable_comparison_is_never_true_not_always_false() {
        let (p, a, _) = two_col_leaf();
        // a < 50 implies a is non-null with domain [1, 50], so in this
        // frame a > 60 is AlwaysFalse (a definite FALSE, never NULL)…
        let plan = p.filter(Expr::Column(a.clone()).lt(lit(50i64)));
        let f = facts(&plan);
        assert_eq!(
            determine(&Expr::Column(a.clone()).gt(lit(60i64)), &f),
            Determination::AlwaysFalse
        );
        // …but against a leaf whose data actually contains a NULL in `a`,
        // a > 200 is NeverTrue: it could evaluate to FALSE or to NULL.
        let a2 = ColumnRef::new("a", DataType::Long, true);
        let b2 = ColumnRef::new("b", DataType::Long, false);
        let p2 = LogicalPlan::LocalRelation {
            output: vec![a2.clone(), b2],
            rows: Arc::new(vec![
                Row::new(vec![Value::Null, Value::Long(2)]),
                Row::new(vec![Value::Long(100), Value::Long(200)]),
            ]),
        };
        let f2 = facts(&p2);
        assert!(f2.attr(a2.id).unwrap().nullable);
        let d = determine(&Expr::Column(a2.clone()).gt(lit(200i64)), &f2);
        assert_eq!(d, Determination::NeverTrue);
        assert!(d.never_true());
    }

    #[test]
    fn local_relation_stats_seed_domains() {
        let out = vec![ColumnRef::new("x", DataType::Long, true)];
        let x = out[0].clone();
        let plan = LogicalPlan::LocalRelation {
            output: out,
            rows: Arc::new(vec![
                Row::new(vec![Value::Long(3)]),
                Row::new(vec![Value::Long(9)]),
            ]),
        };
        let f = facts(&plan);
        let xf = f.attr(x.id).unwrap();
        assert!(!xf.nullable, "no NULLs observed");
        assert_eq!(
            xf.domain,
            Domain::Interval {
                min: Some(Value::Long(3)),
                max: Some(Value::Long(9))
            }
        );
    }

    #[test]
    fn union_joins_domains() {
        let mk = |v: i64| {
            let out = vec![ColumnRef::new("x", DataType::Long, false)];
            LogicalPlan::LocalRelation {
                output: out,
                rows: Arc::new(vec![Row::new(vec![Value::Long(v)])]),
            }
        };
        let u = mk(1).union(vec![mk(5)]);
        let first_id = u.output()[0].id;
        let f = facts(&u);
        let xf = f.attr(first_id).unwrap();
        assert!(!xf.nullable);
        assert_eq!(
            xf.domain,
            Domain::Interval {
                min: Some(Value::Long(1)),
                max: Some(Value::Long(5))
            }
        );
    }

    #[test]
    fn null_rejection_through_or_and_arithmetic() {
        let (_, a, b) = two_col_leaf();
        let both = Expr::Column(a.clone())
            .gt(lit(1i64))
            .or(Expr::Column(a.clone()).lt(lit(0i64)));
        let ids: Vec<ExprId> = null_rejected_columns(&both).iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![a.id], "OR keeps columns rejected by both sides");
        let arith = Expr::Column(a.clone())
            .add(Expr::Column(b.clone()))
            .gt(lit(0i64));
        let mut ids: Vec<ExprId> = null_rejected_columns(&arith).iter().map(|c| c.id).collect();
        ids.sort_unstable();
        let mut want = vec![a.id, b.id];
        want.sort_unstable();
        assert_eq!(ids, want);
        let not_rejecting = Expr::IsNull(Box::new(Expr::Column(a.clone())));
        assert!(null_rejected_columns(&not_rejecting).is_empty());
    }

    #[test]
    fn global_aggregate_over_empty_is_not_empty() {
        let out = vec![ColumnRef::new("x", DataType::Long, false)];
        let x = out[0].clone();
        let empty = LogicalPlan::LocalRelation {
            output: out,
            rows: Arc::new(vec![]),
        };
        let global = empty.clone().aggregate(
            vec![],
            vec![crate::expr::builders::count(Expr::Column(x.clone())).alias("n")],
        );
        assert!(!facts(&global).always_empty);
        let grouped = empty.aggregate(
            vec![Expr::Column(x.clone())],
            vec![
                Expr::Column(x.clone()),
                crate::expr::builders::count(col("x")).alias("n"),
            ],
        );
        assert!(facts(&grouped).always_empty);
    }

    #[test]
    fn analyze_plan_assigns_preorder_ids() {
        let (p, a, _) = two_col_leaf();
        let plan = p.filter(Expr::Column(a).gt(lit(0i64))).limit(3);
        let analysis = analyze_plan(&plan);
        assert_eq!(analysis.nodes.len(), 3);
        assert_eq!(analysis.nodes[0].op, "Limit(3)");
        assert_eq!(analysis.nodes[1].op, "Filter");
        assert_eq!(analysis.nodes[2].op, "LocalRelation");
        assert_eq!(analysis.nodes[0].children, vec![1]);
        assert_eq!(analysis.nodes[1].children, vec![2]);
    }
}
