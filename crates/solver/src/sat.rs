//! A CDCL SAT solver: two-watched-literal propagation, VSIDS variable
//! activity, first-UIP conflict analysis with non-chronological
//! backjumping, phase saving, and Luby restarts.
//!
//! The design follows MiniSat's architecture, sized for the CNF
//! encodings of CGRA mapping (Miyasaka et al., VLSI-SoC 2021): a few
//! thousand variables, tens of thousands of clauses.
//!
//! ## Incremental solving
//!
//! The solver is *incremental* in the MiniSat sense, which is how the
//! SAT-MapIt lineage amortises an II sweep into one solver instance:
//!
//! * [`SatSolver::solve_with_assumptions`] solves under a set of
//!   literals that hold for this call only; clauses (including every
//!   learnt clause) persist across calls, so conflicts discovered at
//!   II=k prune the search at II=k+1;
//! * learnt clauses carry activities and are garbage-collected by
//!   [`reduce_db`](SatSolver) once the database outgrows its budget,
//!   keeping long-lived incremental solvers bounded;
//! * a push/pop-style removable layer: guard a clause group with a
//!   selector from [`SatSolver::new_selector`] via
//!   [`SatSolver::add_clause_under`], activate it by assuming the
//!   selector, and permanently drop it with
//!   [`SatSolver::retire_selector`]. Selectors only ever appear
//!   negatively in guarded clauses, so an unassumed group never
//!   constrains the search.

/// A propositional variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SatVar(pub u32);

/// A literal: variable plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit(u32);

impl Lit {
    #[inline]
    pub fn pos(v: SatVar) -> Lit {
        Lit(v.0 << 1)
    }

    #[inline]
    pub fn neg(v: SatVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    #[inline]
    pub fn var(self) -> SatVar {
        SatVar(self.0 >> 1)
    }

    #[inline]
    pub fn is_neg(self) -> bool {
        self.0 & 1 == 1
    }

    #[inline]
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Solver outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; `model[var]` gives the assignment.
    Sat(Vec<bool>),
    Unsat,
    /// Conflict budget exhausted.
    Unknown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Value {
    True,
    False,
    Undef,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    /// Bumped when the clause participates in conflict analysis;
    /// clause-database reduction evicts the coldest learnt clauses.
    activity: f64,
}

/// The CDCL solver.
pub struct SatSolver {
    num_vars: u32,
    clauses: Vec<Clause>,
    /// watches[lit] = clauses watching `lit` (i.e. containing it among
    /// their first two literals).
    watches: Vec<Vec<u32>>,
    assign: Vec<Value>,
    /// Saved phase per variable.
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    prop_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    /// Clause-activity increment (decayed alongside `var_inc`).
    cla_inc: f64,
    /// Learnt clauses currently in the database.
    num_learnts: usize,
    /// Learnt-clause budget before `reduce_db` fires (0 = not yet
    /// sized; initialised on the first solve from the original count).
    max_learnts: usize,
    /// Set at level 0 when the formula is trivially unsatisfiable.
    unsat: bool,
    /// Statistics: total conflicts seen.
    pub conflicts: u64,
    /// Statistics: total branching decisions made.
    pub decisions: u64,
    /// Statistics: total literals propagated.
    pub propagations: u64,
    /// Statistics: total Luby restarts performed.
    pub restarts: u64,
    /// Statistics: solves answered under a non-empty assumption set.
    pub assumption_solves: u64,
    /// Statistics: learnt clauses surviving database reductions.
    pub learnt_kept: u64,
    /// Statistics: learnt clauses evicted by database reductions.
    pub learnt_gcd: u64,
    /// Conflict budget for `solve` (u64::MAX = off).
    pub conflict_budget: u64,
    /// Cooperative stop signal, polled once per CDCL loop iteration.
    /// Inert by default; `solve` returns `Unknown` when it fires.
    pub interrupt: crate::interrupt::Interrupt,
    /// Final-conflict core of the last assumption solve (see
    /// [`SatSolver::failed_assumptions`]).
    failed: Vec<Lit>,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    pub fn new() -> Self {
        SatSolver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            num_learnts: 0,
            max_learnts: 0,
            unsat: false,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
            assumption_solves: 0,
            learnt_kept: 0,
            learnt_gcd: 0,
            conflict_budget: u64::MAX,
            interrupt: crate::interrupt::Interrupt::none(),
            failed: Vec::new(),
        }
    }

    /// Cumulative search-effort counters.
    pub fn stats(&self) -> crate::stats::SolverStats {
        crate::stats::SolverStats {
            decisions: self.decisions,
            propagations: self.propagations,
            conflicts: self.conflicts,
            restarts: self.restarts,
            assumption_solves: self.assumption_solves,
            learnt_kept: self.learnt_kept,
            learnt_gcd: self.learnt_gcd,
            ..Default::default()
        }
    }

    /// Create a fresh variable.
    pub fn new_var(&mut self) -> SatVar {
        let v = SatVar(self.num_vars);
        self.num_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(Value::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        v
    }

    /// Number of variables allocated.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    #[inline]
    fn value(&self, l: Lit) -> Value {
        match self.assign[l.var().0 as usize] {
            Value::Undef => Value::Undef,
            Value::True => {
                if l.is_neg() {
                    Value::False
                } else {
                    Value::True
                }
            }
            Value::False => {
                if l.is_neg() {
                    Value::True
                } else {
                    Value::False
                }
            }
        }
    }

    /// Add a clause (empty ⇒ unsat, unit ⇒ top-level assignment).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        debug_assert!(self.trail_lim.is_empty(), "add clauses before solving");
        if self.unsat {
            return;
        }
        // Deduplicate and drop tautologies.
        let mut ls: Vec<Lit> = lits.to_vec();
        ls.sort_by_key(|l| l.0);
        ls.dedup();
        for w in ls.windows(2) {
            if w[0].var() == w[1].var() {
                return; // x ∨ ¬x: tautology
            }
        }
        // Drop already-false top-level literals, check satisfied.
        ls.retain(|&l| self.value(l) != Value::False);
        if ls.iter().any(|&l| self.value(l) == Value::True) {
            return;
        }
        match ls.len() {
            0 => self.unsat = true,
            1 => {
                self.enqueue(ls[0], None);
                if self.propagate().is_some() {
                    self.unsat = true;
                }
            }
            _ => {
                let idx = self.clauses.len() as u32;
                self.watches[ls[0].negate().index()].push(idx);
                self.watches[ls[1].negate().index()].push(idx);
                self.clauses.push(Clause {
                    lits: ls,
                    learnt: false,
                    activity: 0.0,
                });
            }
        }
    }

    /// Create a selector literal for a removable clause group.
    ///
    /// Selectors are ordinary variables whose saved phase starts
    /// `false`, so an unassumed group costs nothing in search. Guarded
    /// clauses only contain the selector negatively, which keeps the
    /// group inert unless the selector is assumed true.
    pub fn new_selector(&mut self) -> Lit {
        Lit::pos(self.new_var())
    }

    /// Add `lits` guarded by `sel`: the clause only constrains solves
    /// that assume `sel` (it is recorded as `¬sel ∨ lits`).
    pub fn add_clause_under(&mut self, sel: Lit, lits: &[Lit]) {
        let mut guarded = Vec::with_capacity(lits.len() + 1);
        guarded.push(sel.negate());
        guarded.extend_from_slice(lits);
        self.add_clause(&guarded);
    }

    /// Permanently deactivate a selector's clause group (MiniSat-style
    /// "pop"): asserting `¬sel` at the top level satisfies every clause
    /// added under it, and level-0 simplification in `reduce_db` will
    /// physically drop them on the next pass.
    pub fn retire_selector(&mut self, sel: Lit) {
        self.add_clause(&[sel.negate()]);
    }

    fn enqueue(&mut self, l: Lit, reason: Option<u32>) {
        let v = l.var().0 as usize;
        debug_assert_eq!(self.assign[v], Value::Undef);
        self.assign[v] = if l.is_neg() {
            Value::False
        } else {
            Value::True
        };
        self.phase[v] = !l.is_neg();
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause index if any.
    fn propagate(&mut self) -> Option<u32> {
        while self.prop_head < self.trail.len() {
            let p = self.trail[self.prop_head];
            self.prop_head += 1;
            self.propagations += 1;
            // Clauses watching ¬p must find a new watch or propagate.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut i = 0;
            while i < ws.len() {
                let ci = ws[i];
                let falsified = p.negate();
                // Normalise: ensure lits[1] is the falsified watch.
                let (first, need_new) = {
                    let c = &mut self.clauses[ci as usize];
                    if c.lits[0] == falsified {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], falsified);
                    (c.lits[0], true)
                };
                let _ = need_new;
                if self.value(first) == Value::True {
                    i += 1;
                    continue; // clause satisfied
                }
                // Look for a new watchable literal.
                let mut moved = false;
                {
                    let c = &mut self.clauses[ci as usize];
                    for k in 2..c.lits.len() {
                        // A literal not currently false can be watched.
                        let lk = c.lits[k];
                        let val = match self.assign[lk.var().0 as usize] {
                            Value::Undef => Value::Undef,
                            Value::True => {
                                if lk.is_neg() {
                                    Value::False
                                } else {
                                    Value::True
                                }
                            }
                            Value::False => {
                                if lk.is_neg() {
                                    Value::True
                                } else {
                                    Value::False
                                }
                            }
                        };
                        if val != Value::False {
                            c.lits.swap(1, k);
                            moved = true;
                            break;
                        }
                    }
                }
                if moved {
                    let new_watch = self.clauses[ci as usize].lits[1];
                    self.watches[new_watch.negate().index()].push(ci);
                    ws.swap_remove(i);
                    continue;
                }
                // No new watch: clause is unit or conflicting.
                if self.value(first) == Value::False {
                    // Conflict: restore remaining watches and report.
                    self.watches[p.index()].extend_from_slice(&ws[i..]);
                    ws.truncate(i);
                    self.watches[p.index()].extend(ws);
                    self.prop_head = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, Some(ci));
                i += 1;
            }
            // Put back the (possibly shrunk) watch list.
            let existing = std::mem::take(&mut self.watches[p.index()]);
            let mut merged = ws;
            merged.extend(existing);
            self.watches[p.index()] = merged;
        }
        None
    }

    fn cla_bump(&mut self, ci: u32) {
        let c = &mut self.clauses[ci as usize];
        if !c.learnt {
            return;
        }
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn bump(&mut self, v: SatVar) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
    }

    /// First-UIP conflict analysis. Returns (learnt clause with the
    /// asserting literal first, backjump level).
    fn analyze(&mut self, confl: u32) -> (Vec<Lit>, u32) {
        let cur_level = self.trail_lim.len() as u32;
        let mut seen = vec![false; self.num_vars as usize];
        let mut learnt: Vec<Lit> = vec![Lit(0)]; // slot 0 for the UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut clause = confl;
        let mut idx = self.trail.len();

        loop {
            self.cla_bump(clause);
            let lits: Vec<Lit> = self.clauses[clause as usize].lits.clone();
            let skip_first = p.is_some();
            for (k, &q) in lits.iter().enumerate() {
                if skip_first && k == 0 {
                    continue;
                }
                if p == Some(q) {
                    continue;
                }
                let v = q.var();
                if !seen[v.0 as usize] && self.level[v.0 as usize] > 0 {
                    seen[v.0 as usize] = true;
                    self.bump(v);
                    if self.level[v.0 as usize] >= cur_level {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on: last trail literal seen.
            loop {
                idx -= 1;
                let l = self.trail[idx];
                if seen[l.var().0 as usize] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.unwrap().var();
            seen[pv.0 as usize] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.unwrap().negate();
                break;
            }
            clause = self.reason[pv.0 as usize].expect("non-decision must have a reason");
        }

        // Backjump level: highest level among learnt[1..].
        let bt = learnt[1..]
            .iter()
            .map(|l| self.level[l.var().0 as usize])
            .max()
            .unwrap_or(0);
        // Put a literal of level bt at position 1 (watch invariant).
        if learnt.len() > 1 {
            let pos = learnt[1..]
                .iter()
                .position(|l| self.level[l.var().0 as usize] == bt)
                .unwrap()
                + 1;
            learnt.swap(1, pos);
        }
        (learnt, bt)
    }

    /// The subset of the last [`solve_with_assumptions`] call's
    /// assumptions that formed the final conflict — a (not necessarily
    /// minimal) unsat core over the assumption set. Empty when the
    /// formula is unsatisfiable on its own, or when the last solve was
    /// not `Unsat`.
    ///
    /// [`solve_with_assumptions`]: SatSolver::solve_with_assumptions
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// MiniSat's `analyzeFinal`: `a` is an assumption falsified by the
    /// current trail (which holds only assumption decisions and their
    /// propagations). Walk reason chains backward from `a`'s variable;
    /// every decision reached is an earlier assumption, and together
    /// with `a` they form the conflict core. Must run *before*
    /// `cancel_until(0)` tears the trail down.
    fn analyze_final(&self, a: Lit) -> Vec<Lit> {
        let mut out = vec![a];
        if self.trail_lim.is_empty() {
            return out;
        }
        let mut seen = vec![false; self.num_vars as usize];
        seen[a.var().0 as usize] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().0 as usize;
            if !seen[v] {
                continue;
            }
            match self.reason[v] {
                // A decision above level 0 during assumption
                // establishment is itself an assumption.
                None => out.push(l),
                Some(ci) => {
                    for &q in &self.clauses[ci as usize].lits {
                        if self.level[q.var().0 as usize] > 0 {
                            seen[q.var().0 as usize] = true;
                        }
                    }
                }
            }
            seen[v] = false;
        }
        out
    }

    fn cancel_until(&mut self, level: u32) {
        while self.trail_lim.len() as u32 > level {
            let lim = self.trail_lim.pop().unwrap();
            while self.trail.len() > lim {
                let l = self.trail.pop().unwrap();
                let v = l.var().0 as usize;
                self.assign[v] = Value::Undef;
                self.reason[v] = None;
            }
        }
        self.prop_head = self.trail.len();
    }

    fn decide(&mut self) -> Option<Lit> {
        let mut best: Option<(usize, f64)> = None;
        for v in 0..self.num_vars as usize {
            if self.assign[v] == Value::Undef {
                let a = self.activity[v];
                if best.map(|(_, ba)| a > ba).unwrap_or(true) {
                    best = Some((v, a));
                }
            }
        }
        best.map(|(v, _)| {
            if self.phase[v] {
                Lit::pos(SatVar(v as u32))
            } else {
                Lit::neg(SatVar(v as u32))
            }
        })
    }

    /// Luby restart sequence: 1,1,2,1,1,2,4,1,1,2,1,1,2,4,8,…
    /// (MiniSat's formulation with base 2).
    fn luby(mut x: u64) -> u64 {
        let mut size: u64 = 1;
        let mut seq: u32 = 0;
        while size < x + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != x {
            size = (size - 1) >> 1;
            seq -= 1;
            x %= size;
        }
        1u64 << seq
    }

    /// Override the learnt-clause budget that triggers database
    /// reduction (default: `max(2000, originals / 2)`, sized on the
    /// first solve and grown ×4/3 per reduction).
    pub fn set_learnt_budget(&mut self, n: usize) {
        self.max_learnts = n.max(16);
    }

    /// Evict the coldest half of the long learnt clauses and simplify
    /// the database against the (permanent) level-0 assignment.
    ///
    /// Only callable at decision level 0. Level-0 reasons are never
    /// consulted by `analyze` (it skips level-0 literals), so they can
    /// be cleared, which frees every clause index for compaction.
    fn reduce_db(&mut self) {
        debug_assert!(self.trail_lim.is_empty());
        for r in &mut self.reason {
            *r = None;
        }
        // Rank long learnt clauses by activity; the coldest half goes.
        let mut ranked: Vec<(f64, usize)> = self
            .clauses
            .iter()
            .enumerate()
            .filter(|(_, c)| c.learnt && c.lits.len() > 2)
            .map(|(i, c)| (c.activity, i))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut drop = vec![false; self.clauses.len()];
        for &(_, i) in ranked.iter().take(ranked.len() / 2) {
            drop[i] = true;
        }

        let old = std::mem::take(&mut self.clauses);
        for w in &mut self.watches {
            w.clear();
        }
        self.num_learnts = 0;
        for (i, mut c) in old.into_iter().enumerate() {
            if c.learnt && drop[i] {
                self.learnt_gcd += 1;
                continue;
            }
            // Simplify against the permanent assignment: a true literal
            // retires the clause, false literals are dropped.
            if c.lits.iter().any(|&l| self.value(l) == Value::True) {
                if c.learnt {
                    self.learnt_gcd += 1;
                }
                continue;
            }
            c.lits.retain(|&l| self.value(l) != Value::False);
            match c.lits.len() {
                0 => {
                    self.unsat = true;
                    return;
                }
                1 => {
                    self.enqueue(c.lits[0], None);
                    if c.learnt {
                        self.learnt_gcd += 1;
                    }
                }
                _ => {
                    let idx = self.clauses.len() as u32;
                    self.watches[c.lits[0].negate().index()].push(idx);
                    self.watches[c.lits[1].negate().index()].push(idx);
                    if c.learnt {
                        self.num_learnts += 1;
                        self.learnt_kept += 1;
                    }
                    self.clauses.push(c);
                }
            }
        }
        if self.propagate().is_some() {
            self.unsat = true;
        }
    }

    /// Solve the formula with no assumptions.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solve under `assumptions`: literals that hold for this call
    /// only. All clauses — learnt ones included — persist for the next
    /// call, which is what makes adjacent-II solves cheap.
    ///
    /// `Unsat` under a non-empty assumption set means the formula has
    /// no model extending the assumptions; the solver itself stays
    /// usable (only a conflict at level 0 is permanent).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        if !assumptions.is_empty() {
            self.assumption_solves += 1;
        }
        self.failed.clear();
        if self.unsat {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.unsat = true;
            return SatResult::Unsat;
        }
        if self.max_learnts == 0 {
            self.max_learnts = (self.clauses.len() / 2).max(2000);
        } else if self.num_learnts > self.max_learnts {
            self.reduce_db();
            if self.unsat {
                return SatResult::Unsat;
            }
        }
        let mut restart_count = 0u64;
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = 100 * Self::luby(0);

        loop {
            if self.interrupt.should_stop() {
                self.cancel_until(0);
                return SatResult::Unknown;
            }
            match self.propagate() {
                Some(confl) => {
                    self.conflicts += 1;
                    conflicts_since_restart += 1;
                    if self.conflicts > self.conflict_budget {
                        self.cancel_until(0);
                        return SatResult::Unknown;
                    }
                    if self.trail_lim.is_empty() {
                        self.unsat = true;
                        return SatResult::Unsat;
                    }
                    let (learnt, bt) = self.analyze(confl);
                    self.cancel_until(bt);
                    let asserting = learnt[0];
                    if learnt.len() == 1 {
                        self.enqueue(asserting, None);
                    } else {
                        let idx = self.clauses.len() as u32;
                        self.watches[learnt[0].negate().index()].push(idx);
                        self.watches[learnt[1].negate().index()].push(idx);
                        self.num_learnts += 1;
                        self.clauses.push(Clause {
                            lits: learnt,
                            learnt: true,
                            activity: self.cla_inc,
                        });
                        self.enqueue(asserting, Some(idx));
                    }
                    self.var_inc /= 0.95; // VSIDS decay
                    self.cla_inc /= 0.999;
                }
                None => {
                    if conflicts_since_restart >= restart_limit && !self.trail_lim.is_empty() {
                        restart_count += 1;
                        self.restarts += 1;
                        conflicts_since_restart = 0;
                        restart_limit = 100 * Self::luby(restart_count);
                        self.cancel_until(0);
                        if self.num_learnts > self.max_learnts {
                            self.reduce_db();
                            self.max_learnts += self.max_learnts / 3;
                            if self.unsat {
                                return SatResult::Unsat;
                            }
                        }
                        continue;
                    }
                    // Establish any assumption not yet decided: each one
                    // opens its own decision level (a dummy level if it
                    // is already implied), so conflict analysis can
                    // still backjump between assumptions and restarts
                    // simply re-establish them.
                    let dl = self.trail_lim.len();
                    if dl < assumptions.len() {
                        let a = assumptions[dl];
                        match self.value(a) {
                            Value::True => {
                                self.trail_lim.push(self.trail.len());
                            }
                            Value::False => {
                                // The formula (plus earlier assumptions)
                                // implies ¬a: unsat under assumptions,
                                // but the solver stays reusable. Extract
                                // the final-conflict core while the
                                // trail still exists.
                                self.failed = self.analyze_final(a);
                                self.cancel_until(0);
                                return SatResult::Unsat;
                            }
                            Value::Undef => {
                                self.decisions += 1;
                                self.trail_lim.push(self.trail.len());
                                self.enqueue(a, None);
                            }
                        }
                        continue;
                    }
                    match self.decide() {
                        None => {
                            let model = self.assign.iter().map(|&v| v == Value::True).collect();
                            self.cancel_until(0);
                            return SatResult::Sat(model);
                        }
                        Some(l) => {
                            self.decisions += 1;
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(l, None);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Pigeonhole encodings index `p[a][hole]`/`p[b][hole]` — the range
    // loop is the clearest form.
    #![allow(clippy::needless_range_loop)]

    use super::*;

    fn v(s: &mut SatSolver, n: usize) -> Vec<SatVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        s.add_clause(&[Lit::pos(x)]);
        match s.solve() {
            SatResult::Sat(m) => assert!(m[0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        s.add_clause(&[Lit::pos(x)]);
        s.add_clause(&[Lit::neg(x)]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut s = SatSolver::new();
        let _ = s.new_var();
        s.add_clause(&[]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn implication_chain_propagates() {
        // x0 and (¬x_i ∨ x_{i+1}) for a chain — all must be true.
        let mut s = SatSolver::new();
        let vars = v(&mut s, 20);
        s.add_clause(&[Lit::pos(vars[0])]);
        for w in vars.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        match s.solve() {
            SatResult::Sat(m) => assert!(m.iter().all(|&b| b)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // PHP(3,2): 3 pigeons, 2 holes — classically UNSAT and requires
        // real conflict analysis.
        let mut s = SatSolver::new();
        let p: Vec<Vec<SatVar>> = (0..3).map(|_| v(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        for hole in 0..2 {
            for a in 0..3 {
                for b in (a + 1)..3 {
                    s.add_clause(&[Lit::neg(p[a][hole]), Lit::neg(p[b][hole])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn pigeonhole_4_into_3_unsat() {
        let mut s = SatSolver::new();
        let p: Vec<Vec<SatVar>> = (0..4).map(|_| v(&mut s, 3)).collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
            s.add_clause(&c);
        }
        for hole in 0..3 {
            for a in 0..4 {
                for b in (a + 1)..4 {
                    s.add_clause(&[Lit::neg(p[a][hole]), Lit::neg(p[b][hole])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn graph_coloring_triangle() {
        // A triangle is 3-colourable but not 2-colourable.
        let color_model = |colors: usize| -> SatResult {
            let mut s = SatSolver::new();
            let x: Vec<Vec<SatVar>> = (0..3).map(|_| v(&mut s, colors)).collect();
            for node in &x {
                let c: Vec<Lit> = node.iter().map(|&y| Lit::pos(y)).collect();
                s.add_clause(&c);
            }
            for (a, b) in [(0, 1), (1, 2), (0, 2)] {
                for c in 0..colors {
                    s.add_clause(&[Lit::neg(x[a][c]), Lit::neg(x[b][c])]);
                }
            }
            s.solve()
        };
        assert_eq!(color_model(2), SatResult::Unsat);
        assert!(matches!(color_model(3), SatResult::Sat(_)));
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish structured instance; verify the returned model.
        let mut s = SatSolver::new();
        let vars = v(&mut s, 12);
        let clauses: Vec<Vec<Lit>> = (0..40)
            .map(|i| {
                let a = vars[(i * 7 + 1) % 12];
                let b = vars[(i * 5 + 3) % 12];
                let c = vars[(i * 11 + 5) % 12];
                vec![
                    if i % 2 == 0 { Lit::pos(a) } else { Lit::neg(a) },
                    if i % 3 == 0 { Lit::pos(b) } else { Lit::neg(b) },
                    if i % 5 == 0 { Lit::pos(c) } else { Lit::neg(c) },
                ]
            })
            .collect();
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve() {
            SatResult::Sat(m) => {
                for c in &clauses {
                    assert!(c.iter().any(|l| {
                        let val = m[l.var().0 as usize];
                        if l.is_neg() {
                            !val
                        } else {
                            val
                        }
                    }));
                }
            }
            SatResult::Unsat => {
                /* fine if genuinely unsat — but then
                verify by brute force below */
                let n = vars.len();
                for bits in 0..(1u32 << n) {
                    let m: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                    let ok = clauses.iter().all(|c| {
                        c.iter().any(|l| {
                            let val = m[l.var().0 as usize];
                            if l.is_neg() {
                                !val
                            } else {
                                val
                            }
                        })
                    });
                    assert!(!ok, "solver said UNSAT but {bits:b} satisfies");
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::pos(x), Lit::neg(y)]);
        s.add_clause(&[Lit::pos(y), Lit::neg(y)]); // tautology: ignored
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    /// PHP(pigeons, holes) clauses, each guarded by `sel` when given.
    fn add_php(s: &mut SatSolver, pigeons: usize, holes: usize, sel: Option<Lit>) {
        let p: Vec<Vec<SatVar>> = (0..pigeons).map(|_| v(s, holes)).collect();
        let add = |s: &mut SatSolver, lits: &[Lit]| match sel {
            Some(g) => s.add_clause_under(g, lits),
            None => s.add_clause(lits),
        };
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
            add(s, &c);
        }
        for hole in 0..holes {
            for a in 0..pigeons {
                for b in (a + 1)..pigeons {
                    add(s, &[Lit::neg(p[a][hole]), Lit::neg(p[b][hole])]);
                }
            }
        }
    }

    #[test]
    fn assumptions_behave_like_temporary_units() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x), Lit::pos(y)]);
        match s.solve_with_assumptions(&[Lit::neg(x)]) {
            SatResult::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.solve_with_assumptions(&[Lit::neg(x), Lit::neg(y)]),
            SatResult::Unsat
        );
        // Unsat under assumptions is not permanent.
        assert!(matches!(s.solve(), SatResult::Sat(_)));
        assert!(matches!(
            s.solve_with_assumptions(&[Lit::pos(x)]),
            SatResult::Sat(_)
        ));
        assert_eq!(s.stats().assumption_solves, 3);
    }

    #[test]
    fn selector_groups_gate_and_retire() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        let a = s.new_selector();
        let b = s.new_selector();
        s.add_clause_under(a, &[Lit::pos(x)]);
        s.add_clause_under(b, &[Lit::neg(x)]);
        match s.solve_with_assumptions(&[a]) {
            SatResult::Sat(m) => assert!(m[x.0 as usize]),
            other => panic!("{other:?}"),
        }
        match s.solve_with_assumptions(&[b]) {
            SatResult::Sat(m) => assert!(!m[x.0 as usize]),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.solve_with_assumptions(&[a, b]), SatResult::Unsat);
        s.retire_selector(b);
        assert!(matches!(s.solve_with_assumptions(&[a]), SatResult::Sat(_)));
        assert_eq!(s.solve_with_assumptions(&[b]), SatResult::Unsat);
        // The solver itself stays satisfiable.
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn learnt_clauses_persist_across_assumption_solves() {
        // PHP(6,5) guarded by a selector: Unsat under the assumption,
        // and the clauses learnt on the first call make the second call
        // near-free (the refutation persists as unit ¬sel at level 0).
        let mut s = SatSolver::new();
        let sel = s.new_selector();
        add_php(&mut s, 6, 5, Some(sel));
        assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Unsat);
        let first = s.conflicts;
        assert!(first > 0);
        assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Unsat);
        let second = s.conflicts - first;
        assert!(
            second < first,
            "repeat solve should reuse learnt clauses ({second} vs {first})"
        );
        assert!(matches!(s.solve(), SatResult::Sat(_)));
    }

    #[test]
    fn clause_db_reduction_is_sound_and_bounded() {
        let mut s = SatSolver::new();
        let sel = s.new_selector();
        add_php(&mut s, 7, 6, Some(sel));
        s.set_learnt_budget(24);
        assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Unsat);
        let st = s.stats();
        assert!(st.learnt_gcd > 0, "tiny budget must trigger GC");
        // Result is still correct after (possibly many) reductions, and
        // the solver remains usable.
        assert!(matches!(s.solve(), SatResult::Sat(_)));
        assert_eq!(s.solve_with_assumptions(&[sel]), SatResult::Unsat);
    }

    #[test]
    fn incremental_unsat_is_permanent_only_at_level_zero() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        s.add_clause(&[Lit::pos(x)]);
        assert!(matches!(s.solve(), SatResult::Sat(_)));
        // Adding the contradicting unit after a solve makes the formula
        // permanently unsat, assumptions or not.
        s.add_clause(&[Lit::neg(x)]);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(x)]), SatResult::Unsat);
    }

    #[test]
    fn failed_assumptions_name_the_conflicting_subset() {
        // ¬x ∨ ¬y makes {x, y} jointly inconsistent; z is innocent.
        let mut s = SatSolver::new();
        let x = s.new_var();
        let y = s.new_var();
        let z = s.new_var();
        s.add_clause(&[Lit::neg(x), Lit::neg(y)]);
        assert_eq!(
            s.solve_with_assumptions(&[Lit::pos(x), Lit::pos(z), Lit::pos(y)]),
            SatResult::Unsat
        );
        let mut core = s.failed_assumptions().to_vec();
        core.sort_by_key(|l| l.var().0);
        assert_eq!(core, vec![Lit::pos(x), Lit::pos(y)]);
        // A satisfiable call clears the core.
        assert!(matches!(
            s.solve_with_assumptions(&[Lit::pos(x)]),
            SatResult::Sat(_)
        ));
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_empty_when_formula_unsat_alone() {
        let mut s = SatSolver::new();
        let x = s.new_var();
        let y = s.new_var();
        s.add_clause(&[Lit::pos(x)]);
        s.add_clause(&[Lit::neg(x)]);
        assert_eq!(s.solve_with_assumptions(&[Lit::pos(y)]), SatResult::Unsat);
        assert!(s.failed_assumptions().is_empty());
    }

    #[test]
    fn failed_assumptions_cover_selector_layers() {
        // Two selector-guarded groups force x and ¬x; a third selector
        // guards an unrelated satisfiable group and must stay out of
        // the core. The conflict here surfaces through a learnt clause
        // (a's group propagates x, b's refutes it), exercising the
        // reason-chain walk rather than direct falsification.
        let mut s = SatSolver::new();
        let x = s.new_var();
        let w = s.new_var();
        let a = s.new_selector();
        let b = s.new_selector();
        let c = s.new_selector();
        s.add_clause_under(a, &[Lit::pos(x)]);
        s.add_clause_under(b, &[Lit::neg(x)]);
        s.add_clause_under(c, &[Lit::pos(w)]);
        assert_eq!(s.solve_with_assumptions(&[c, a, b]), SatResult::Unsat);
        let mut core = s.failed_assumptions().to_vec();
        core.sort_by_key(|l| l.var().0);
        let mut expect = vec![a, b];
        expect.sort_by_key(|l| l.var().0);
        assert_eq!(core, expect);
        // Core literals are always drawn from the assumption set.
        for l in s.failed_assumptions() {
            assert!([c, a, b].contains(l));
        }
    }

    #[test]
    fn budget_returns_unknown() {
        // PHP(6,5) takes > 1 conflict.
        let mut s = SatSolver::new();
        let p: Vec<Vec<SatVar>> = (0..6).map(|_| v(&mut s, 5)).collect();
        for row in &p {
            let c: Vec<Lit> = row.iter().map(|&x| Lit::pos(x)).collect();
            s.add_clause(&c);
        }
        for hole in 0..5 {
            for a in 0..6 {
                for b in (a + 1)..6 {
                    s.add_clause(&[Lit::neg(p[a][hole]), Lit::neg(p[b][hole])]);
                }
            }
        }
        s.conflict_budget = 1;
        assert_eq!(s.solve(), SatResult::Unknown);
    }
}
