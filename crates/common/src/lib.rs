//! Shared substrate for the `cq-updates` workspace.
//!
//! This crate provides the low-level building blocks that the rest of the
//! reproduction of *Answering Conjunctive Queries under Updates* (Berkholz,
//! Keppeler, Schweikardt; PODS 2017) is built on:
//!
//! * [`hash`] — an Fx-style fast hasher plus `FxHashMap`/`FxHashSet`
//!   aliases. The paper's RAM-model `d`-ary arrays `A_v` are replaced by
//!   hash maps keyed on path constants, exactly as the paper's footnote 2
//!   prescribes for real-world machines.
//! * [`slab`] — a slab arena with a free list. Items of the dynamic data
//!   structure (Section 6 of the paper) live in a slab and are addressed by
//!   dense `u32` ids so the intrusive doubly-linked "fit lists" need no
//!   allocation per link operation.
//! * [`bitset`] — dense bitsets and square boolean matrices used by the
//!   OMv/OuMv/OV lower-bound machinery (Section 5 of the paper).
//! * [`epoch`] — a hand-rolled arc-swap ([`EpochCell`]): lock-free O(1)
//!   epoch publication and pinning, the substrate of the session layer's
//!   snapshot fast path.
//! * [`union_find`] — a disjoint-set forest ([`UnionFind`]), used by the
//!   session layer's shard planner to partition relations into
//!   independent write shards by transitive query-footprint overlap.
//! * [`wire`] — the binary codec under every wire and on-disk format:
//!   little-endian writers, the bounded decoder [`wire::Cur`],
//!   [`wire::WireError`] and length-prefixed framing.
//! * [`net`] — the TCP server runtime ([`net::TcpServer`]) both the
//!   serve layer and the replication leader run on, with the socket
//!   policy (`TCP_NODELAY`) every connection shares.

#![warn(missing_docs)]
pub mod bitset;
pub mod epoch;
pub mod hash;
pub mod net;
pub mod slab;
pub mod union_find;
pub mod wire;

pub use bitset::{BitMatrix, BitSet};
pub use epoch::EpochCell;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use slab::{Slab, SlabId};
pub use union_find::UnionFind;

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `m`, taking the guard even when a panicking holder poisoned
/// it: the workspace's mutexes guard state that stays usable after a
/// panic, and one failed thread must not take a server down with it.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
