//! Update commands.
//!
//! An update is `insert R(a₁,…,a_r)` or `delete R(a₁,…,a_r)` (paper,
//! Section 2). Durable logs of updates are the WAL's business
//! (`cqu-wal`'s `Rec::Update`).

use crate::{Const, Tuple};
use cqu_query::RelId;

/// A single-tuple update command.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Update {
    /// `insert R(a₁,…,a_r)`.
    Insert(RelId, Tuple),
    /// `delete R(a₁,…,a_r)`.
    Delete(RelId, Tuple),
}

impl Update {
    /// The relation the update touches.
    pub fn relation(&self) -> RelId {
        match self {
            Update::Insert(r, _) | Update::Delete(r, _) => *r,
        }
    }

    /// The tuple of the update.
    pub fn tuple(&self) -> &[Const] {
        match self {
            Update::Insert(_, t) | Update::Delete(_, t) => t,
        }
    }

    /// Returns `true` for insertions.
    pub fn is_insert(&self) -> bool {
        matches!(self, Update::Insert(..))
    }

    /// The inverse command (insert ↔ delete of the same tuple).
    pub fn inverse(&self) -> Update {
        match self {
            Update::Insert(r, t) => Update::Delete(*r, t.clone()),
            Update::Delete(r, t) => Update::Insert(*r, t.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_roundtrip() {
        let u = Update::Insert(RelId(3), vec![4, 5]);
        assert_eq!(u.inverse(), Update::Delete(RelId(3), vec![4, 5]));
        assert_eq!(u.inverse().inverse(), u);
        assert!(u.is_insert());
        assert!(!u.inverse().is_insert());
    }
}
