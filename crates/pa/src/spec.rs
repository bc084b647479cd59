//! Specifications: named process definitions, type declarations, and a top
//! behaviour.

use crate::expr::Expr;
use crate::term::{Offer, Term};
use crate::value::{EnumDef, Sym, Type};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A process definition: `process P[g…](x:T…) := B endproc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcDef {
    /// Process name.
    pub name: Sym,
    /// Formal gate parameters.
    pub gates: Vec<Sym>,
    /// Formal value parameters with their types.
    pub params: Vec<(Sym, Type)>,
    /// Body behaviour.
    pub body: Arc<Term>,
}

/// A complete specification: types, processes, and the top-level behaviour.
#[derive(Debug, Clone, Default)]
pub struct Spec {
    types: HashMap<Sym, Arc<EnumDef>>,
    procs: HashMap<Sym, ProcDef>,
    top: Option<Arc<Term>>,
}

/// Error raised by [`Spec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError(pub String);

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid specification: {}", self.0)
    }
}

impl std::error::Error for ValidateError {}

impl Spec {
    /// Creates an empty specification.
    pub fn new() -> Self {
        Spec::default()
    }

    /// Declares an enumeration type.
    pub fn add_type(&mut self, def: EnumDef) -> Arc<EnumDef> {
        let arc = Arc::new(def);
        self.types.insert(arc.name.clone(), arc.clone());
        arc
    }

    /// Looks up an enumeration type by name.
    pub fn enum_type(&self, name: &str) -> Option<&Arc<EnumDef>> {
        self.types.get(name)
    }

    /// Adds a process definition (replacing any previous one of that name).
    pub fn add_process(&mut self, def: ProcDef) {
        self.procs.insert(def.name.clone(), def);
    }

    /// Looks up a process definition by name.
    pub fn process(&self, name: &str) -> Option<&ProcDef> {
        self.procs.get(name)
    }

    /// Iterates over all process definitions.
    pub fn processes(&self) -> impl Iterator<Item = &ProcDef> {
        self.procs.values()
    }

    /// Sets the top-level behaviour.
    pub fn set_top(&mut self, top: Arc<Term>) {
        self.top = Some(top);
    }

    /// The top-level behaviour.
    ///
    /// # Panics
    ///
    /// Panics if no top behaviour was set; use [`Spec::try_top`] to probe.
    pub fn top(&self) -> &Arc<Term> {
        self.top.as_ref().expect("specification has no top behaviour")
    }

    /// The top-level behaviour, if set.
    pub fn try_top(&self) -> Option<&Arc<Term>> {
        self.top.as_ref()
    }

    /// Static sanity checks: every process call refers to a defined process
    /// with matching gate/argument arity, and every expression variable is
    /// bound by an enclosing binder or process parameter.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        for def in self.procs.values() {
            let mut bound: HashSet<Sym> = def.params.iter().map(|(x, _)| x.clone()).collect();
            self.check_term(&def.body, &mut bound, &def.name)?;
        }
        if let Some(top) = &self.top {
            let mut bound = HashSet::new();
            self.check_term(top, &mut bound, &crate::value::sym("<top>"))?;
        }
        Ok(())
    }

    fn check_expr(&self, e: &Expr, bound: &HashSet<Sym>, ctx: &Sym) -> Result<(), ValidateError> {
        let mut vars = HashSet::new();
        e.free_vars(&mut vars);
        for v in vars {
            if !bound.contains(&v) && self.enum_variant_exists(&v).is_none() {
                return Err(ValidateError(format!("in `{ctx}`: unbound variable `{v}`")));
            }
        }
        Ok(())
    }

    /// If `name` is a variant of some declared enum, returns that enum.
    pub fn enum_variant_exists(&self, name: &str) -> Option<&Arc<EnumDef>> {
        self.types.values().find(|d| d.variant_index(name).is_some())
    }

    fn check_term(
        &self,
        t: &Arc<Term>,
        bound: &mut HashSet<Sym>,
        ctx: &Sym,
    ) -> Result<(), ValidateError> {
        match &**t {
            Term::Stop => Ok(()),
            Term::Exit(es) => es.iter().try_for_each(|e| self.check_expr(e, bound, ctx)),
            Term::Prefix(a, cont) => {
                let mut added = Vec::new();
                for o in &a.offers {
                    match o {
                        Offer::Send(e) => self.check_expr(e, bound, ctx)?,
                        Offer::Recv(x, _) => {
                            if bound.insert(x.clone()) {
                                added.push(x.clone());
                            }
                        }
                    }
                }
                let r = self.check_term(cont, bound, ctx);
                for x in added {
                    bound.remove(&x);
                }
                r
            }
            Term::Guard(e, b) => {
                self.check_expr(e, bound, ctx)?;
                self.check_term(b, bound, ctx)
            }
            Term::Choice(l, r) | Term::Disable(l, r) => {
                self.check_term(l, bound, ctx)?;
                self.check_term(r, bound, ctx)
            }
            Term::Par(_, l, r) => {
                self.check_term(l, bound, ctx)?;
                self.check_term(r, bound, ctx)
            }
            Term::Hide(_, b) | Term::Rename(_, b) => self.check_term(b, bound, ctx),
            Term::Call(p, gates, args) => {
                let def = self.procs.get(p).ok_or_else(|| {
                    ValidateError(format!("in `{ctx}`: call to undefined process `{p}`"))
                })?;
                if def.gates.len() != gates.len() {
                    return Err(ValidateError(format!(
                        "in `{ctx}`: `{p}` expects {} gates, got {}",
                        def.gates.len(),
                        gates.len()
                    )));
                }
                if def.params.len() != args.len() {
                    return Err(ValidateError(format!(
                        "in `{ctx}`: `{p}` expects {} arguments, got {}",
                        def.params.len(),
                        args.len()
                    )));
                }
                args.iter().try_for_each(|e| self.check_expr(e, bound, ctx))
            }
            Term::Enable(l, binders, r) => {
                self.check_term(l, bound, ctx)?;
                let mut added = Vec::new();
                for (x, _) in binders {
                    if bound.insert(x.clone()) {
                        added.push(x.clone());
                    }
                }
                let res = self.check_term(r, bound, ctx);
                for x in added {
                    bound.remove(&x);
                }
                res
            }
            Term::Let(binds, b) => {
                let mut added = Vec::new();
                for (x, _, e) in binds {
                    self.check_expr(e, bound, ctx)?;
                    if bound.insert(x.clone()) {
                        added.push(x.clone());
                    }
                }
                let res = self.check_term(b, bound, ctx);
                for x in added {
                    bound.remove(&x);
                }
                res
            }
        }
    }
}

impl Spec {
    /// Renders the specification back to mini-LOTOS source. The output
    /// re-parses to a specification whose state space is strongly bisimilar
    /// to the original (round-trip tested).
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        // Types first (the parser resolves enum names eagerly).
        let mut types: Vec<_> = self.types.values().collect();
        types.sort_by(|a, b| a.name.cmp(&b.name));
        for def in types {
            let variants: Vec<&str> = def.variants.iter().map(|v| &**v).collect();
            let _ = writeln!(out, "type {} is {} endtype", def.name, variants.join(", "));
        }
        let mut procs: Vec<_> = self.procs.values().collect();
        procs.sort_by(|a, b| a.name.cmp(&b.name));
        for def in procs {
            let _ = write!(out, "process {}", def.name);
            if !def.gates.is_empty() {
                let gates: Vec<&str> = def.gates.iter().map(|g| &**g).collect();
                let _ = write!(out, "[{}]", gates.join(", "));
            }
            if !def.params.is_empty() {
                let params: Vec<String> =
                    def.params.iter().map(|(x, t)| format!("{x}: {t}")).collect();
                let _ = write!(out, "({})", params.join(", "));
            }
            let _ = writeln!(out, " :=\n    {}\nendproc", def.body);
        }
        if let Some(top) = &self.top {
            let _ = writeln!(out, "behaviour\n    {top}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Action;
    use crate::value::sym;

    fn stop() -> Arc<Term> {
        Term::Stop.rc()
    }

    #[test]
    fn validate_accepts_wellformed() {
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("P"),
            gates: vec![sym("g")],
            params: vec![(sym("n"), Type::Int(0, 3))],
            body: Term::Guard(
                Expr::bin(crate::expr::BinOp::Lt, Expr::var("n"), Expr::int(3)),
                Term::Prefix(
                    Action::bare("g"),
                    Term::Call(
                        sym("P"),
                        vec![sym("g")],
                        vec![Expr::bin(crate::expr::BinOp::Add, Expr::var("n"), Expr::int(1))],
                    )
                    .rc(),
                )
                .rc(),
            )
            .rc(),
        });
        s.set_top(Term::Call(sym("P"), vec![sym("g")], vec![Expr::int(0)]).rc());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn validate_rejects_undefined_process() {
        let mut s = Spec::new();
        s.set_top(Term::Call(sym("Nope"), vec![], vec![]).rc());
        let err = s.validate().expect_err("undefined process");
        assert!(err.0.contains("undefined process"));
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let mut s = Spec::new();
        s.add_process(ProcDef {
            name: sym("P"),
            gates: vec![sym("g")],
            params: vec![],
            body: stop(),
        });
        s.set_top(Term::Call(sym("P"), vec![], vec![]).rc());
        let err = s.validate().expect_err("gate arity");
        assert!(err.0.contains("expects 1 gates"));
    }

    #[test]
    fn validate_rejects_unbound_variable() {
        let mut s = Spec::new();
        s.set_top(Term::Exit(vec![Expr::var("ghost")]).rc());
        let err = s.validate().expect_err("unbound");
        assert!(err.0.contains("unbound variable"));
    }

    #[test]
    fn enum_variants_count_as_bound() {
        let mut s = Spec::new();
        s.add_type(EnumDef { name: sym("st"), variants: vec![sym("I"), sym("M")] });
        // Using `M` as a bare name refers to the enum constant.
        s.set_top(Term::Exit(vec![Expr::var("M")]).rc());
        assert!(s.validate().is_ok());
    }

    #[test]
    fn recv_binds_in_continuation_only() {
        let mut s = Spec::new();
        // g ?x:bool; exit(x) — fine.
        s.set_top(
            Term::Prefix(
                Action { gate: sym("g"), offers: vec![Offer::Recv(sym("x"), Type::Bool)] },
                Term::Exit(vec![Expr::var("x")]).rc(),
            )
            .rc(),
        );
        assert!(s.validate().is_ok());
        // exit(x); after scope — unbound.
        let mut s2 = Spec::new();
        s2.set_top(
            Term::Choice(
                Term::Prefix(
                    Action { gate: sym("g"), offers: vec![Offer::Recv(sym("x"), Type::Bool)] },
                    stop(),
                )
                .rc(),
                Term::Exit(vec![Expr::var("x")]).rc(),
            )
            .rc(),
        );
        assert!(s2.validate().is_err());
    }
}
