//! Golden bytes for every wire and on-disk format: each serve frame tag,
//! each replication frame tag, each WAL record tag, the segment header,
//! and one checkpoint file. Encoders may be restructured freely; these
//! literals may not change without a protocol or format version bump.

use cq_updates::prelude::*;
use cq_updates::repl::protocol::{encode_records_frame, DenyReason, Frame as ReplFrame};
use cq_updates::serving::protocol::{encode_snapshot_frames, SubscribeMode};
use cq_updates::serving::Frame;
use cq_updates::wal::{Rec, Wal, WalOptions};
use cqu_testutil::SimDisk;

/// Compares `bytes` with a hex literal; whitespace in the literal only
/// groups fields for the reader.
fn golden(what: &str, bytes: &[u8], want: &str) {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    let want: String = want.split_whitespace().collect();
    assert_eq!(hex, want, "{what}");
}

fn q() -> String {
    "q".into()
}

#[test]
#[rustfmt::skip]
fn serve_frames_are_byte_stable() {
    let cases = [
        (Frame::Hello { version: 4, seq: 42 }, "0d000000 01 04000000 2a00000000000000"),
        (Frame::Register { name: q(), src: "Q(x) :- E(x).".into() },
            "13000000 02 0100 71 0d00 51287829203a2d20452878292e"),
        (Frame::Query { name: q() }, "04000000 03 0100 71"),
        (Frame::Subscribe { name: q(), from_seq: None }, "05000000 04 0100 71 00"),
        (Frame::Subscribe { name: q(), from_seq: Some(7) }, "0d000000 04 0100 71 01 0700000000000000"),
        (Frame::Unsubscribe { name: q() }, "04000000 05 0100 71"),
        (Frame::Ack { name: q(), seq: 9 }, "0c000000 06 0100 71 0900000000000000"),
        (Frame::Subscribed { name: q(), mode: SubscribeMode::Resync, seq: 3 },
            "0d000000 07 0100 71 02 0300000000000000"),
        (Frame::Snapshot { name: q(), seq: 5, rows: vec![vec![1, 2], vec![3, 4]] },
            "32000000 08 0100 71 0500000000000000 02000000 0200
             0100000000000000 0200000000000000 0300000000000000 0400000000000000"),
        (Frame::Delta { name: q(), seq: 6, added: vec![vec![1]], removed: vec![] },
            "20000000 09 0100 71 0600000000000000 01000000 0100 0100000000000000 00000000 0000"),
        (Frame::Lagged { name: q(), resync_at: 8 }, "0c000000 0a 0100 71 0800000000000000"),
        (Frame::Error { code: 1, msg: "no".into() }, "06000000 0b 01 0200 6e6f"),
        (Frame::SnapshotChunk { name: q(), seq: 5, first: true, last: false, rows: vec![vec![1]] },
            "1b000000 0c 0100 71 0500000000000000 02 01000000 0100 0100000000000000"),
        (Frame::StatsRequest, "01000000 0d"),
        (Frame::StatsReply { text: "a 1\n".into() }, "09000000 0e 04000000 6120310a"),
    ];
    for (frame, want) in cases {
        golden(&format!("{frame:?}"), &frame.encode(), want);
    }
    // A chunked snapshot run: one row per chunk, flags first / none / last.
    let run = encode_snapshot_frames("q", 5, &[vec![1], vec![2], vec![3]], 8);
    let want = [
        "1b000000 0c 0100 71 0500000000000000 02 01000000 0100 0100000000000000",
        "1b000000 0c 0100 71 0500000000000000 00 01000000 0100 0200000000000000",
        "1b000000 0c 0100 71 0500000000000000 01 01000000 0100 0300000000000000",
    ];
    assert_eq!(run.len(), want.len());
    for (bytes, want) in run.iter().zip(want) {
        golden("snapshot chunk run", bytes, want);
    }
}

#[test]
#[rustfmt::skip]
fn replication_frames_are_byte_stable() {
    let cases = [
        (ReplFrame::Hello { version: 2, epoch: 3, cursor: 42 },
            "15000000 01 02000000 0300000000000000 2a00000000000000"),
        (ReplFrame::Welcome { epoch: 4, head_seq: 100, sharded: true, reset: true, ckpt: false },
            "14000000 02 0400000000000000 6400000000000000 01 01 00"),
        (ReplFrame::CkptChunk { seq: 50, first: true, last: true, bytes: vec![0xaa, 0xbb] },
            "10000000 03 3200000000000000 03 02000000 aabb"),
        (ReplFrame::Records { bytes: vec![1, 2, 3] }, "04000000 04 010203"),
        (ReplFrame::Heartbeat { head_seq: 7 }, "09000000 05 0700000000000000"),
        (ReplFrame::Ack { applied_seq: 6 }, "09000000 06 0600000000000000"),
        (ReplFrame::Deny { reason: DenyReason::StaleEpoch, msg: "old".into() },
            "07000000 07 03 0300 6f6c64"),
    ];
    for (frame, want) in cases {
        golden(&format!("{frame:?}"), &frame.encode(), want);
    }
    // A `Records` batch carries the WAL's own `len | crc | payload` frames.
    golden(
        "records batch",
        &encode_records_frame(&[Rec::TxBegin { first_seq: 1 }, Rec::SeqBurn { upto: 2 }]),
        "23000000 04 09000000 3c454f77 04 0100000000000000 09000000 596a36d7 06 0200000000000000",
    );
}

#[test]
#[rustfmt::skip]
fn wal_records_are_byte_stable() {
    let cases = [
        (Rec::Mode { sharded: true }, "02000000 2813c52f 01 01"),
        (Rec::Register { name: q(), src: "Q(x)".into(), choice: 2 },
            "0f000000 3f6284c0 02 02 01000000 71 04000000 51287829"),
        (Rec::Update { seq: 42, shard: 3, insert: true, rel: 7, tuple: vec![1, u64::MAX] },
            "22000000 caa68d61 03 2a00000000000000 0300 01 07000000 0200
             0100000000000000 ffffffffffffffff"),
        (Rec::TxBegin { first_seq: 9 }, "09000000 895eaaa4 04 0900000000000000"),
        (Rec::TxCommit { last_seq: 12 }, "09000000 ae4431fb 05 0c00000000000000"),
        (Rec::SeqBurn { upto: 15 }, "09000000 887f334c 06 0f00000000000000"),
    ];
    for (rec, want) in cases {
        let mut framed = Vec::new();
        rec.frame(&mut framed);
        golden(&format!("{rec:?}"), &framed, want);
    }
}

#[test]
fn segment_header_is_byte_stable() {
    let disk = SimDisk::new();
    let mut wal = Wal::new(Box::new(disk.clone()), WalOptions::default(), 1, 5).unwrap();
    let names = disk.names();
    assert_eq!(names.len(), 1, "{names:?}");
    // Magic "CQWS", format version 2, term 5.
    let header = "43515753 02000000 0500000000000000";
    golden("segment header", &disk.file(&names[0]).unwrap(), header);
    wal.append(&Rec::Mode { sharded: false });
    assert!(wal.commit().unwrap());
    let with_record = format!("{header} 02000000 be23c258 01 00");
    golden("segment", &disk.file(&names[0]).unwrap(), &with_record);
}

#[test]
fn checkpoint_file_is_byte_stable() {
    let disk = SimDisk::new();
    let opts = DurableOptions::default();
    let durable = DurableSession::create(Box::new(disk.clone()), opts).unwrap();
    durable.register("q", "Q(x, y) :- E(x, y), T(y).").unwrap();
    let e = durable.relation("E").unwrap();
    let t = durable.relation("T").unwrap();
    for u in [
        Update::Insert(e, vec![2, 1]),
        Update::Insert(e, vec![1, 1]),
        Update::Insert(t, vec![1]),
    ] {
        durable.apply(&u).unwrap();
    }
    assert_eq!(durable.checkpoint().unwrap(), 3);
    let names: Vec<String> = disk
        .names()
        .into_iter()
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    assert_eq!(names.len(), 1, "{names:?}");
    // Header: magic "CQCK", format version 2, seq 3, body length, crc32.
    // Body: sharded flag; registrations (choice, name, src); relations in
    // schema order (arity, count, sorted tuples).
    golden(
        "checkpoint file",
        &disk.file(&names[0]).unwrap(),
        "4351434b 02000000 0300000000000000 68000000 dc332d38
         00
         01000000 00 01000000 71 19000000 5128782c207929203a2d204528782c2079292c20542879292e
         02000000
         0200 0200000000000000 0100000000000000 0100000000000000
                               0200000000000000 0100000000000000
         0100 0100000000000000 0100000000000000",
    );
}
