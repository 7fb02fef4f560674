//! Input generation, kept apart from the program under test: every
//! preload and update stream is drawn from `cqu_testutil::Lcg` /
//! `effective_churn` out of the run's seed before any timing starts, and
//! the program only ever receives the generated updates.

use cq_updates::query::{parse_query, Query, QueryBuilder, Schema};
use cq_updates::storage::{Const, Database, Update};
use cqu_testutil::Lcg;
use std::borrow::Cow;
use std::collections::HashSet;

/// Parses `src` and remaps it onto `schema`, interning its relations, so
/// that every query of a workload and the oracle's database share one
/// set of relation ids. Relations are interned in first-use order, the
/// order the session layer interns them in too.
pub fn adopt(schema: &mut Schema, src: &str) -> Query {
    let q = parse_query(src).expect("benchmark queries parse");
    let theirs = q.schema();
    for rel in theirs.relations() {
        schema
            .intern(theirs.name(rel), theirs.arity(rel))
            .expect("benchmark queries agree on arities");
    }
    let mut b = QueryBuilder::with_schema(q.name(), schema.clone());
    for atom in q.atoms() {
        let args: Vec<_> = atom.args.iter().map(|&v| b.var(q.var_name(v))).collect();
        b.atom(theirs.name(atom.relation), &args)
            .expect("relation was just interned");
    }
    let free: Vec<_> = q.free().iter().map(|&v| b.var(q.var_name(v))).collect();
    b.head(&free)
        .build()
        .expect("remapped query is well formed")
}

/// `steps` effective updates that continue from the state `preload`
/// builds (which must itself be all effective inserts): `effective_churn`'s
/// rule, but starting from that live set rather than from empty. Each
/// step inserts a fresh random tuple (values in `1..=domain`) with
/// probability `insert_permille`/1000 and otherwise deletes a random live
/// tuple, so the database keeps its size and updates land on preloaded
/// values as often as on new ones.
pub fn churn_from(
    schema: &Schema,
    preload: &[Update],
    seed: u64,
    steps: usize,
    domain: Const,
    insert_permille: usize,
) -> Vec<Update> {
    let rels: Vec<_> = schema.relations().collect();
    let mut live: Vec<Vec<Vec<Const>>> = vec![Vec::new(); rels.len()];
    let mut set: HashSet<(usize, Vec<Const>)> = HashSet::new();
    for u in preload {
        assert!(u.is_insert(), "preloads are inserts");
        let r = u.relation().index();
        assert!(
            set.insert((r, u.tuple().to_vec())),
            "preload tuples are distinct"
        );
        live[r].push(u.tuple().to_vec());
    }
    let mut rng = Lcg::new(seed);
    let mut out = Vec::with_capacity(steps);
    while out.len() < steps {
        let total: usize = live.iter().map(Vec::len).sum();
        if total == 0 || rng.chance(insert_permille, 1000) {
            let r = rng.below(rels.len());
            let tuple: Vec<Const> = (0..schema.arity(rels[r]))
                .map(|_| 1 + rng.below(domain as usize) as Const)
                .collect();
            if set.insert((r, tuple.clone())) {
                live[r].push(tuple.clone());
                out.push(Update::Insert(rels[r], tuple));
            }
        } else {
            let nonempty: Vec<usize> = (0..rels.len()).filter(|&r| !live[r].is_empty()).collect();
            let r = nonempty[rng.below(nonempty.len())];
            let pos = rng.below(live[r].len());
            let tuple = live[r].swap_remove(pos);
            set.remove(&(r, tuple.clone()));
            out.push(Update::Delete(rels[r], tuple));
        }
    }
    out
}

/// A finite effective update stream replayed forward, then backward as
/// inverses, then forward again: every update stays effective however
/// many the closed loop gets through, and memory stays bounded by the
/// stream however fast the program is. The backward half is computed on
/// demand, so only one copy of the stream is held.
#[derive(Debug, Clone)]
pub struct PingPong {
    forward: Vec<Update>,
}

impl PingPong {
    /// Wraps a stream that is effective from the state it starts on.
    pub fn new(forward: Vec<Update>) -> PingPong {
        assert!(!forward.is_empty(), "an empty stream cannot drive a loop");
        PingPong { forward }
    }

    /// The `n`-th update of the endless replay.
    pub fn get(&self, n: u64) -> Cow<'_, Update> {
        let len = self.forward.len() as u64;
        let pos = n % (2 * len);
        if pos < len {
            Cow::Borrowed(&self.forward[pos as usize])
        } else {
            Cow::Owned(self.forward[(2 * len - 1 - pos) as usize].inverse())
        }
    }

    /// Applies the first `n` updates of the replay to `db`, leaving out
    /// the positions in `skip` (ascending): the commits the program
    /// refused, which changed nothing.
    pub fn apply_prefix(&self, db: &mut Database, n: u64, skip: &[u64]) {
        let mut skip = skip.iter().peekable();
        for i in 0..n {
            if skip.next_if_eq(&&i).is_none() {
                db.apply(&self.get(i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqu_testutil::{effective_churn, WorkloadConfig};

    #[test]
    fn adopt_shares_relation_ids_across_queries() {
        let mut schema = Schema::new();
        let a = adopt(&mut schema, "Q(x, y) :- E(x, y), T(y).");
        let b = adopt(&mut schema, "Q(x, y) :- T(x), R(x, y).");
        assert_eq!(schema.len(), 3);
        assert_eq!(a.schema().relation("T"), b.schema().relation("T"));
        assert_eq!(schema.relation("R"), b.schema().relation("R"));
    }

    #[test]
    fn churn_from_stays_effective_after_the_preload() {
        let mut schema = Schema::new();
        adopt(&mut schema, "Q(x, y) :- E(x, y), T(y).");
        let cfg = WorkloadConfig {
            steps: 300,
            domain: 30,
            insert_permille: 1000,
        };
        let preload = effective_churn(&schema, 1, cfg);
        let stream = churn_from(&schema, &preload, 2, 2000, 30, 500);
        assert_eq!(stream, churn_from(&schema, &preload, 2, 2000, 30, 500));
        let mut db = Database::new(schema);
        assert_eq!(db.apply_all(&preload), preload.len());
        assert_eq!(db.apply_all(&stream), stream.len(), "every step effective");
        assert!(stream
            .iter()
            .any(|u| !u.is_insert() && preload.contains(&u.inverse())));
    }

    #[test]
    fn ping_pong_stays_effective_past_the_stream_end() {
        let mut schema = Schema::new();
        adopt(&mut schema, "Q(x, y) :- E(x, y), T(y).");
        let stream = effective_churn(
            &schema,
            3,
            WorkloadConfig {
                steps: 40,
                domain: 5,
                insert_permille: 600,
            },
        );
        let pp = PingPong::new(stream);
        let mut db = Database::new(schema.clone());
        for i in 0..200 {
            assert!(db.apply(&pp.get(i)), "update {i} was a no-op");
        }
        assert_eq!(pp.get(0), pp.get(80));
        assert_eq!(*pp.get(40), pp.get(39).inverse());
        assert_eq!(*pp.get(79), pp.get(0).inverse());
        let mut whole = Database::new(schema);
        pp.apply_prefix(&mut whole, 200, &[]);
        assert_eq!(whole.cardinality(), db.cardinality());
    }

    #[test]
    fn a_skipped_position_is_left_out_of_the_prefix() {
        let mut schema = Schema::new();
        adopt(&mut schema, "Q(x, y) :- E(x, y), T(y).");
        let stream = effective_churn(
            &schema,
            4,
            WorkloadConfig {
                steps: 10,
                domain: 50,
                insert_permille: 1000,
            },
        );
        let pp = PingPong::new(stream);
        let mut all = Database::new(schema.clone());
        pp.apply_prefix(&mut all, 10, &[]);
        let mut some = Database::new(schema);
        pp.apply_prefix(&mut some, 10, &[3, 7]);
        assert_eq!(all.cardinality(), 10);
        assert_eq!(some.cardinality(), 8);
    }
}
