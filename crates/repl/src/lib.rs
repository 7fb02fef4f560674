//! `cqu-repl`: log-shipping replication for the dynamic query engine.
//!
//! A leader process tails its write-ahead log and streams committed
//! records to any number of follower processes over a length-prefixed
//! TCP protocol; followers rebuild the session state and serve reads at
//! an explicit applied-seq watermark. Like `cqu-serve`, the leader runs
//! on the `std::net` thread-per-connection runtime in `cqu_common::net`
//! and frames with `cqu_common::wire` — no async framework, no
//! crates.io dependencies — with blocking threads and byte-budgeted
//! queues.
//!
//! The crate is engine-agnostic: it speaks `cqu_wal::Rec` and leaves
//! the session semantics to two traits the `cq-updates` glue
//! implements —
//!
//! * [`ReplSource`] (leader side): atomically scan the committed log
//!   (checkpoint + tail) and register a live ship queue, all under one
//!   commit-lock hold, so the catch-up/live splice is exact.
//! * [`ReplicaApply`] (follower side): rebuild from a checkpoint body,
//!   apply record batches, track the durable cursor and leader epoch.
//!
//! The pieces:
//!
//! * [`protocol`] — the wire frames (`Hello`/`Welcome`, chunked
//!   `CkptChunk` checkpoint transfer, `Records` batches carrying raw
//!   WAL frames, `Heartbeat`/`Ack`) and the strict decoders.
//! * [`queue`] — [`ShipQueue`], the never-blocking byte-budgeted seam
//!   between the leader's commit path and each follower connection:
//!   overflow kills the queue (the follower resumes by cursor), never
//!   the commit.
//! * [`leader`] — [`LeaderServer`]: acceptor, handshake (resume vs.
//!   chunked-checkpoint bootstrap, epoch-checked), per-follower pump
//!   and ack-reader threads.
//! * [`follower`] — [`Follower`]: the reconnect loop driving a
//!   [`ReplicaApply`], with a [`kick`](Follower::kick) fault-injection
//!   hook.

#![warn(missing_docs)]

pub mod follower;
pub mod leader;
pub mod protocol;
pub mod queue;

pub use follower::{Follower, FollowerConfig, FollowerStats, ReplicaApply};
pub use leader::{Attach, FollowerProgress, LeaderConfig, LeaderServer, LeaderStats, ReplSource};
pub use protocol::{DenyReason, Frame, WireError, REPL_VERSION};
pub use queue::{ShipPop, ShipQueue};
