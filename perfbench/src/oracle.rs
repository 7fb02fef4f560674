//! The correctness gate: `cqu_testutil::brute_force` on the final
//! database, run one partition at a time.
//!
//! `brute_force` is a nested loop over whole relations, far too slow for
//! databases of 10⁵ tuples in one piece. Each benchmark query has a
//! *root* variable, and every answer's witnessing facts either contain
//! the root's value or join a fact that does. So the database is cut
//! into one small sub-database per root value — the facts of atoms
//! holding the root with that value, plus the facts of the other atoms
//! that join them — and `brute_force` runs on each. Every sub-database
//! is a subset of the full one, so each answer found is an answer of the
//! full query (queries are monotone), and each full answer's witnesses
//! all land in its root value's sub-database, so none is missed.

use cq_updates::query::{Query, Var};
use cq_updates::storage::{Const, Database, Tuple};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Every answer of `q` on `db`, sorted, computed by partitioned brute
/// force around the variable named `root`.
///
/// Panics if `root` is not a variable of `q` or some atom shares no
/// variable with the atoms holding `root` (the benchmark's queries are
/// fixed, so this is a bug in the benchmark, not in the program).
pub fn answers(q: &Query, db: &Database, root: &str) -> Vec<Tuple> {
    let root = q
        .vars()
        .find(|&v| q.var_name(v) == root)
        .expect("root variable belongs to the query");
    let atoms = q.atoms();
    let is_root: Vec<bool> = atoms.iter().map(|a| a.args.contains(&root)).collect();
    // Variables bound by root atoms: the join keys for the others.
    let root_vars: BTreeSet<Var> = atoms
        .iter()
        .zip(&is_root)
        .filter(|(_, &r)| r)
        .flat_map(|(a, _)| a.args.iter().copied())
        .collect();

    // Root facts, grouped by their value at the root position.
    let mut parts: BTreeMap<Const, Vec<(usize, Tuple)>> = BTreeMap::new();
    for (i, atom) in atoms.iter().enumerate().filter(|(i, _)| is_root[*i]) {
        let pos = atom
            .args
            .iter()
            .position(|&v| v == root)
            .expect("root atom");
        for fact in db.relation(atom.relation).iter() {
            parts.entry(fact[pos]).or_default().push((i, fact.clone()));
        }
    }
    // Other atoms: indexed by the value of one variable they share with
    // the root atoms.
    let mut joins: Vec<(usize, Var, HashMap<Const, Vec<Tuple>>)> = Vec::new();
    for (i, atom) in atoms.iter().enumerate().filter(|(i, _)| !is_root[*i]) {
        let (pos, &key) = atom
            .args
            .iter()
            .enumerate()
            .find(|(_, v)| root_vars.contains(v))
            .expect("every non-root atom joins a root atom");
        let mut index: HashMap<Const, Vec<Tuple>> = HashMap::new();
        for fact in db.relation(atom.relation).iter() {
            index.entry(fact[pos]).or_default().push(fact.clone());
        }
        joins.push((i, key, index));
    }

    let mut out = Vec::new();
    for facts in parts.values() {
        let mut sub = Database::new(db.schema().clone());
        for (i, fact) in facts {
            sub.insert(atoms[*i].relation, fact.clone());
        }
        for (i, key, index) in &joins {
            let keys: BTreeSet<Const> = facts
                .iter()
                .flat_map(|(a, fact)| {
                    atoms[*a]
                        .args
                        .iter()
                        .zip(fact)
                        .filter(|(v, _)| *v == key)
                        .map(|(_, &c)| c)
                })
                .collect();
            for k in keys {
                for fact in index.get(&k).into_iter().flatten() {
                    sub.insert(atoms[*i].relation, fact.clone());
                }
            }
        }
        out.extend(cqu_testutil::brute_force(q, &sub));
    }
    out.sort();
    out.dedup();
    out
}

/// Compares a result the program produced with the oracle's; `Err`
/// describes the first difference.
pub fn check(what: &str, got: &[Tuple], want: &[Tuple]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.iter().find(|t| got.binary_search(t).is_err());
    let extra = got.iter().find(|t| want.binary_search(t).is_err());
    Err(format!(
        "{what}: {} rows, oracle has {}; first missing {missing:?}, first extra {extra:?}",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::adopt;
    use cq_updates::query::Schema;
    use cqu_testutil::{effective_churn, Lcg, WorkloadConfig};

    /// Partitioned answers equal whole-database brute force, for every
    /// query shape the benchmark uses.
    #[test]
    fn partitioned_brute_force_equals_brute_force() {
        let cases = [
            ("Q(x, y, z) :- R(x, y), S(x, z), T(x).", "x"),
            ("Q(x, y) :- A(x), E(x, y), B(y).", "x"),
            ("Feed(u, v, p) :- Follows(u, v), Posts(v, p).", "v"),
            ("Q(x, y) :- E(x, y), T(y).", "y"),
            ("Q(x) :- A(x), E(x, y), B(y).", "x"),
        ];
        let mut rng = Lcg::new(11);
        for (src, root) in cases {
            let mut schema = Schema::new();
            let q = adopt(&mut schema, src);
            let updates = effective_churn(
                &schema,
                rng.next_u64(),
                WorkloadConfig {
                    steps: 400,
                    domain: 7,
                    insert_permille: 800,
                },
            );
            let mut db = Database::new(schema);
            db.apply_all(&updates);
            let want = cqu_testutil::brute_force(&q, &db);
            assert!(!want.is_empty(), "{src}: vacuous case");
            assert_eq!(answers(&q, &db, root), want, "{src}");
        }
    }

    #[test]
    fn check_reports_the_first_difference() {
        let a = vec![vec![1], vec![2]];
        let b = vec![vec![1], vec![3]];
        assert!(check("q", &a, &a).is_ok());
        let err = check("q", &a, &b).unwrap_err();
        assert!(err.contains("[3]") && err.contains("[2]"), "{err}");
    }
}
