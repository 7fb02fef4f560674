//! WAL record payloads and their binary encoding.
//!
//! The WAL is engine-agnostic: records carry raw relation ids and
//! `u64` constants, plus the session-level framing — registration DDL, shard ids,
//! transaction begin/commit, and rollback compensation. The `cq-updates`
//! durable layer translates to and from its own types.
//!
//! Wire form of one frame inside a segment:
//!
//! ```text
//! u32 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! All integers little-endian ([`cqu_common::wire`]). The payload's
//! first byte is the record tag; the rest is tag-specific.

use crate::crc32::crc32;
use cqu_common::wire::{put_bytes32, put_u16, put_u32, put_u64, Cur, WireError};

/// Sanity cap on a single record's payload (16 MiB). Anything larger in
/// a length prefix is treated as corruption/torn data, not an
/// allocation request.
pub const MAX_RECORD_LEN: usize = 16 << 20;

const TAG_MODE: u8 = 1;
const TAG_REGISTER: u8 = 2;
const TAG_UPDATE: u8 = 3;
const TAG_TX_BEGIN: u8 = 4;
const TAG_TX_COMMIT: u8 = 5;
const TAG_SEQ_BURN: u8 = 6;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rec {
    /// Written once, first record of a fresh log: whether the session is
    /// sharded. Recovery uses it to rebuild the right backend.
    Mode {
        /// `true` for a sharded session, `false` for a single writer.
        sharded: bool,
    },
    /// Durable DDL: a query registration. Recovery re-registers in log
    /// order, which deterministically reproduces the schema (relation
    /// ids) and, for sharded sessions, the shard plan.
    Register {
        /// Query name (unique per session).
        name: String,
        /// Query source text.
        src: String,
        /// Engine choice, encoded by the durable layer (0 = auto).
        choice: u8,
    },
    /// One effective update, stamped with its global sequence number and
    /// the shard that applied it (0 for single-writer sessions).
    Update {
        /// Global sequence number this update was published at.
        seq: u64,
        /// Shard id (informational; routing is re-derived at recovery).
        shard: u16,
        /// `true` for insert, `false` for delete.
        insert: bool,
        /// Relation id in the session schema.
        rel: u32,
        /// The tuple's constants.
        tuple: Vec<u64>,
    },
    /// Opens a transaction's record group. Updates between this and the
    /// matching [`Rec::TxCommit`] are atomic: recovery applies them only
    /// if the commit record made it to disk.
    TxBegin {
        /// First sequence number the transaction will occupy.
        first_seq: u64,
    },
    /// Seals a transaction's record group.
    TxCommit {
        /// Last sequence number the transaction occupied.
        last_seq: u64,
    },
    /// Rollback compensation: a rolled-back (or failed) operation burned
    /// sequence numbers up to `upto` without publishing anything. Logged
    /// so the recovered counter matches the in-memory path and burned
    /// numbers are never reissued to subscribers.
    SeqBurn {
        /// The sequence counter value after the burn.
        upto: u64,
    },
}

impl Rec {
    /// Encodes the payload (tag + body, no frame header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Rec::Mode { sharded } => {
                out.push(TAG_MODE);
                out.push(u8::from(*sharded));
            }
            Rec::Register { name, src, choice } => {
                out.push(TAG_REGISTER);
                out.push(*choice);
                put_bytes32(out, name.as_bytes());
                put_bytes32(out, src.as_bytes());
            }
            Rec::Update {
                seq,
                shard,
                insert,
                rel,
                tuple,
            } => {
                out.push(TAG_UPDATE);
                put_u64(out, *seq);
                put_u16(out, *shard);
                out.push(u8::from(*insert));
                put_u32(out, *rel);
                put_u16(out, u16::try_from(tuple.len()).expect("arity fits u16"));
                for &c in tuple {
                    put_u64(out, c);
                }
            }
            Rec::TxBegin { first_seq } => {
                out.push(TAG_TX_BEGIN);
                put_u64(out, *first_seq);
            }
            Rec::TxCommit { last_seq } => {
                out.push(TAG_TX_COMMIT);
                put_u64(out, *last_seq);
            }
            Rec::SeqBurn { upto } => {
                out.push(TAG_SEQ_BURN);
                put_u64(out, *upto);
            }
        }
    }

    /// Decodes a payload produced by [`Rec::encode`]. Strict: a short
    /// field, an unknown tag, or trailing bytes is
    /// [`WireError::Malformed`].
    pub fn decode(payload: &[u8]) -> Result<Rec, WireError> {
        let mut r = Cur::new(payload);
        let rec = match r.u8()? {
            TAG_MODE => Rec::Mode {
                sharded: r.u8()? != 0,
            },
            TAG_REGISTER => {
                let choice = r.u8()?;
                let name = r.str32()?;
                let src = r.str32()?;
                Rec::Register { name, src, choice }
            }
            TAG_UPDATE => {
                let seq = r.u64()?;
                let shard = r.u16()?;
                let insert = r.u8()? != 0;
                let rel = r.u32()?;
                let arity = r.u16()? as usize;
                if r.remaining() != arity * 8 {
                    return Err(WireError::Malformed("update tuple length mismatch"));
                }
                let tuple = (0..arity).map(|_| r.u64()).collect::<Result<_, _>>()?;
                Rec::Update {
                    seq,
                    shard,
                    insert,
                    rel,
                    tuple,
                }
            }
            TAG_TX_BEGIN => Rec::TxBegin {
                first_seq: r.u64()?,
            },
            TAG_TX_COMMIT => Rec::TxCommit { last_seq: r.u64()? },
            TAG_SEQ_BURN => Rec::SeqBurn { upto: r.u64()? },
            _ => return Err(WireError::Malformed("unknown record tag")),
        };
        r.finish()?;
        Ok(rec)
    }

    /// Appends this record as a framed `len | crc | payload` triple.
    pub fn frame(&self, out: &mut Vec<u8>) {
        let mut payload = Vec::new();
        self.encode(&mut payload);
        put_u32(out, payload.len() as u32);
        put_u32(out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Rec) {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        assert_eq!(Rec::decode(&payload).unwrap(), rec);
    }

    #[test]
    fn roundtrips() {
        roundtrip(Rec::Mode { sharded: true });
        roundtrip(Rec::Mode { sharded: false });
        roundtrip(Rec::Register {
            name: "feed".into(),
            src: "Q(x, y) :- E(x, y), T(y).".into(),
            choice: 2,
        });
        roundtrip(Rec::Update {
            seq: 42,
            shard: 3,
            insert: true,
            rel: 7,
            tuple: vec![1, u64::MAX, 0],
        });
        roundtrip(Rec::Update {
            seq: 1,
            shard: 0,
            insert: false,
            rel: 0,
            tuple: vec![],
        });
        roundtrip(Rec::TxBegin { first_seq: 9 });
        roundtrip(Rec::TxCommit { last_seq: 12 });
        roundtrip(Rec::SeqBurn { upto: 15 });
    }

    #[test]
    fn rejects_malformed() {
        assert!(Rec::decode(&[]).is_err());
        assert!(Rec::decode(&[0xFF]).is_err());
        // Truncated update.
        let mut payload = Vec::new();
        Rec::Update {
            seq: 1,
            shard: 0,
            insert: true,
            rel: 0,
            tuple: vec![5],
        }
        .encode(&mut payload);
        assert!(Rec::decode(&payload[..payload.len() - 1]).is_err());
        // Trailing garbage.
        payload.push(0);
        assert!(Rec::decode(&payload).is_err());
    }
}
