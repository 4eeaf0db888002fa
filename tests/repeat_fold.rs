//! The analyzer's repeat step, checked against the per-event fold it
//! replaces: `build::build_tree` folds a loop body that repeats byte for
//! byte as `k` more strides at once, and must build exactly what a
//! reference that decodes every event and inserts every access builds —
//! the same node slice (intervals and metadata), the same mutex sets, the
//! same access count, and on a wrapping access the same error.
//!
//! Inputs are generated loop nests: phases of a body repeated over rows,
//! sharing source lines and arrays so progressions run on across phases,
//! with keys that occur twice in a body, two strides in one body, lock
//! operations inside a body, fresh progressions whose stride is confirmed
//! at a body's start, and sweeps that run into the top of the address
//! space. Each is logged in one frame, in 3-byte frames and in frames
//! that cut the body's period.

use std::io;

use sword::itree::{StridedInterval, SummarizingBuilder};
use sword::offline::build::{build_tree, AccessMeta};
use sword::trace::{
    AccessKind, Event, EventDecoder, EventEncoder, LogWriter, MappedLog, MemAccess, MutexId,
    SourceStats,
};

/// What a build yields, compared whole.
#[derive(Debug, PartialEq)]
struct Built {
    nodes: Vec<(StridedInterval, AccessMeta)>,
    mutex_sets: Vec<Vec<MutexId>>,
    accesses: u64,
}

type Outcome = Result<Built, (io::ErrorKind, String)>;

const TID: u32 = 3;

fn encode(events: &[Event]) -> Vec<u8> {
    let mut enc = EventEncoder::new();
    let mut out = Vec::new();
    for e in events {
        enc.encode(e, &mut out);
    }
    out
}

/// `build_tree` over `bytes` logged in frames of `frame_bytes`.
fn built(bytes: &[u8], frame_bytes: usize) -> Outcome {
    let mut w = LogWriter::new(Vec::new());
    for block in bytes.chunks(frame_bytes) {
        w.write_block(block).unwrap();
    }
    let mut log = MappedLog::from_bytes(w.into_inner(), SourceStats::new());
    match build_tree(&mut log, TID, 0, bytes.len() as u64) {
        Ok(t) => Ok(Built {
            nodes: t.tree.iter().map(|(_, iv, m)| (*iv, *m)).collect(),
            mutex_sets: t.mutex_sets,
            accesses: t.accesses,
        }),
        Err(e) => Err((e.kind(), e.to_string())),
    }
}

fn intern(sets: &mut Vec<Vec<MutexId>>, held: &[MutexId]) -> u32 {
    match sets.iter().position(|s| s.as_slice() == held) {
        Some(i) => i as u32,
        None => {
            sets.push(held.to_vec());
            (sets.len() - 1) as u32
        }
    }
}

/// The per-event fold: decode everything, insert every access under the
/// analyzer's key `(pc, kind, size, mutex set)`, and finish with the
/// analyzer's node class (a write meets reads, two reads never meet).
fn reference(bytes: &[u8]) -> Outcome {
    let events = EventDecoder::new().decode_all(bytes).expect("generated streams decode");
    let mut builder: SummarizingBuilder<(u32, u8, u8, u32), AccessMeta> = SummarizingBuilder::new();
    let (mut held, mut mutex_sets, mut mset) = (Vec::new(), vec![Vec::new()], 0);
    for event in events {
        match event {
            Event::Access(a) => {
                if a.addr.checked_add(u64::from(a.size)).is_none() {
                    let msg = format!(
                        "access at {:#x} size {} wraps the address space in tid {TID}",
                        a.addr, a.size
                    );
                    return Err((io::ErrorKind::InvalidData, msg));
                }
                let meta = AccessMeta { kind: a.kind, pc: a.pc, mset };
                builder.insert_with(
                    (a.pc, a.kind.code(), a.size, mset),
                    a.addr,
                    a.size.into(),
                    || meta,
                );
            }
            Event::MutexAcquire(m) => {
                if let Err(at) = held.binary_search(&m) {
                    held.insert(at, m);
                }
                mset = intern(&mut mutex_sets, &held);
            }
            Event::MutexRelease(m) => {
                if let Ok(at) = held.binary_search(&m) {
                    held.remove(at);
                }
                mset = intern(&mut mutex_sets, &held);
            }
        }
    }
    let accesses = builder.access_count();
    let nodes = builder.finish(|m| m.kind.is_write()).iter().map(|(_, iv, m)| (*iv, *m)).collect();
    Ok(Built { nodes, mutex_sets, accesses })
}

/// Builds `events` every way and compares each with the reference: one
/// frame, frames of 3 bytes (every event through the torn-event carry),
/// and frames of sizes that cut a body's period somewhere inside it.
fn check(events: &[Event], what: &str) -> Outcome {
    let bytes = encode(events);
    let expect = reference(&bytes);
    let mut frames = vec![usize::MAX, 3, 7, 64, 1000];
    frames.extend([bytes.len() / 3 + 1, bytes.len() / 2 + 5]);
    for frame_bytes in frames {
        assert_eq!(built(&bytes, frame_bytes), expect, "{what}, frames of {frame_bytes}");
    }
    expect
}

/// One operation of a loop body.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// `arrays[array][(row · ROW_PITCH + col) · mult + offset]`, 8-byte
    /// elements.
    Access {
        pc: u32,
        kind: AccessKind,
        size: u8,
        array: usize,
        mult: u64,
        offset: u64,
    },
    Acquire(MutexId),
    Release(MutexId),
}

/// Elements between rows: far past the builder's largest stride
/// hypothesis, so a row break starts new progressions.
const ROW_PITCH: u64 = 1 << 16;

/// Loop nests: `(body, iterations, row length, first iteration)` per
/// phase, all over the same arrays.
struct Nest {
    arrays: Vec<u64>,
    phases: Vec<(Vec<Op>, u64, u64, u64)>,
}

impl Nest {
    fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for (body, iterations, row_len, first) in &self.phases {
            for i in *first..first + iterations {
                let (row, col) = (i / row_len, i % row_len);
                for op in body {
                    out.push(match *op {
                        Op::Access { pc, kind, size, array, mult, offset } => {
                            let element = (row * ROW_PITCH + col) * mult + offset;
                            let addr = self.arrays[array].wrapping_add(element.wrapping_mul(8));
                            Event::Access(MemAccess::new(addr, size, kind, pc))
                        }
                        Op::Acquire(m) => Event::MutexAcquire(m),
                        Op::Release(m) => Event::MutexRelease(m),
                    });
                }
            }
        }
        out
    }
}

/// xorshift64*.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn access(pc: u32, array: usize, mult: u64, offset: u64) -> Op {
    Op::Access { pc, kind: AccessKind::Read, size: 8, array, mult, offset }
}

/// A random nest. Few source lines, kinds and arrays, so keys recur
/// within a body and across phases; the last array sits near the top of
/// the address space.
fn random_nest(rng: &mut Rng) -> Nest {
    let top = u64::MAX - 8 * (20 + rng.below(600)) - rng.below(8);
    let arrays = vec![0x10_0000, 0x4000_0000, 0x9_0000_0000, top];
    let mut phases = Vec::new();
    let mut next_first = 0;
    for _ in 0..1 + rng.below(4) {
        let len = 1 + rng.below(7);
        let body: Vec<Op> = (0..len)
            .map(|_| match rng.below(10) {
                0 => Op::Acquire(1 + rng.below(2) as MutexId),
                1 => Op::Release(1 + rng.below(2) as MutexId),
                _ => Op::Access {
                    pc: 1 + rng.below(4) as u32,
                    kind: if rng.below(3) == 0 { AccessKind::Write } else { AccessKind::Read },
                    size: if rng.below(4) == 0 { 4 } else { 8 },
                    // The top array rarely: most nests should not end early.
                    array: if rng.below(8) == 0 { 3 } else { rng.below(3) as usize },
                    mult: 1 + rng.below(3),
                    offset: rng.below(3),
                },
            })
            .collect();
        let iterations = 1 + rng.below(400);
        let row_len = [iterations.max(1), 5, 33, 100][rng.below(4) as usize];
        // Carry on where the last phase stopped, or start over.
        let first = if rng.below(2) == 0 { next_first } else { rng.below(50) };
        next_first = first + iterations;
        phases.push((body, iterations, row_len, first));
    }
    Nest { arrays, phases }
}

#[test]
fn build_tree_equals_the_reference_fold_on_generated_loop_nests() {
    let mut rng = Rng(0x5EED_F01D);
    let (mut runs, mut wrapped) = (0, 0);
    for case in 0..400 {
        let nest = random_nest(&mut rng);
        let events = nest.events();
        match check(&events, &format!("case {case}: {:?}", nest.phases)) {
            Ok(b) => runs += u64::from(b.nodes.len() < b.accesses as usize / 4),
            Err(_) => wrapped += 1,
        }
    }
    // The generator reaches both ends: nests that summarise, nests that
    // run off the address space.
    assert!(runs > 100, "{runs} summarising nests");
    assert!(wrapped > 20, "{wrapped} wrapping nests");
}

#[test]
fn a_key_twice_in_one_body() {
    // `x[i] + y[i]` from one line: one key, two progressions, both of
    // stride 8 and both extended in every iteration; then `z[i]`.
    let body = vec![access(1, 0, 1, 0), access(1, 1, 1, 0), access(2, 2, 1, 0)];
    let nest =
        Nest { arrays: vec![0x1000, 0x80_0000, 0x100_0000], phases: vec![(body, 500, 500, 0)] };
    let b = check(&nest.events(), "key twice").unwrap();
    assert_eq!(b.nodes.len(), 3);
    assert_eq!(b.accesses, 1500);
}

#[test]
fn two_strides_in_one_body() {
    // `a[i] = b[2i]`, rows of 100.
    let body = vec![access(1, 1, 2, 0), access(2, 0, 1, 0)];
    let nest = Nest { arrays: vec![0x1000, 0x80_0000], phases: vec![(body, 1000, 100, 0)] };
    let b = check(&nest.events(), "two strides").unwrap();
    assert_eq!(b.nodes.len(), 20);
}

#[test]
fn a_lock_inside_the_body_and_a_lock_state_that_changes_between_phases() {
    // Inside: `a[i]; lock; b[i]; unlock; c[i]`.
    let inside = vec![
        access(1, 0, 1, 0),
        Op::Acquire(7),
        access(2, 1, 1, 0),
        Op::Release(7),
        access(3, 2, 1, 0),
    ];
    // First the lock is held across iterations (`a` and `b` under it,
    // released for `c`, taken again), then the body above: its first
    // iteration runs `a` under the lock, every later one without.
    let held = vec![
        access(1, 0, 1, 0),
        access(2, 1, 1, 0),
        Op::Release(7),
        access(3, 2, 1, 0),
        Op::Acquire(7),
    ];
    let arrays = vec![0x1000, 0x80_0000, 0x100_0000];
    let nest = Nest {
        arrays: arrays.clone(),
        phases: vec![
            (vec![Op::Acquire(7)], 1, 1, 0),
            (held, 20, 1000, 0),
            (inside.clone(), 300, 1000, 20),
        ],
    };
    let b = check(&nest.events(), "lock state changes").unwrap();
    assert_eq!(b.mutex_sets, vec![vec![], vec![7]]);
    let alone = Nest { arrays: arrays.clone(), phases: vec![(inside, 300, 1000, 0)] };
    assert_eq!(check(&alone.events(), "lock inside").unwrap().nodes.len(), 3);

    // `a[i]` runs unlocked; then `x[i]` under the lock for two
    // iterations, its stride still pending; then `x[i]; unlock; a[i]`.
    // The first of those confirms `x` under the lock, right before `a`
    // extends its progression, and its bytes repeat — but from then on
    // `x` runs unlocked, a key of its own.
    let x_under_the_lock = Nest {
        arrays,
        phases: vec![
            (vec![access(1, 1, 1, 0)], 4, 1000, 0),
            (vec![Op::Acquire(7)], 1, 1000, 4),
            (
                vec![access(2, 0, 1, 0), Op::Release(7), access(1, 1, 1, 0), Op::Acquire(7)],
                2,
                1000,
                4,
            ),
            (vec![access(2, 0, 1, 0), Op::Release(7), access(1, 1, 1, 0)], 300, 1000, 6),
        ],
    };
    let b = check(&x_under_the_lock.events(), "x under the lock").unwrap();
    let x_nodes: Vec<_> =
        b.nodes.iter().filter(|(_, m)| m.pc == 2).map(|(iv, m)| (iv.len(), m.mset)).collect();
    assert_eq!(x_nodes, vec![(3, 1), (299, 0)]);
}

#[test]
fn a_stride_that_changes_between_phases() {
    // `b[i]; a[2i]` for three iterations, then `b[i]; a[i]`: the first
    // `a` of the second body is still one stride of 16 past the first
    // body's last, every later one 8 past its predecessor. From the
    // second iteration on the body's bytes repeat with a shift of 8.
    let nest = Nest {
        arrays: vec![0x1000, 0x80_0000],
        phases: vec![
            (vec![access(1, 1, 1, 0), access(2, 0, 2, 0)], 3, 1000, 0),
            (vec![access(1, 1, 1, 0), access(2, 0, 1, 3)], 300, 1000, 3),
        ],
    };
    let b = check(&nest.events(), "stride changes").unwrap();
    let a_nodes: Vec<_> =
        b.nodes.iter().filter(|(_, m)| m.pc == 2).map(|(iv, _)| (iv.stride, iv.len())).collect();
    assert_eq!(a_nodes, vec![(16, 4), (8, 299)]);
}

#[test]
fn a_pending_stride_confirmed_at_the_body_start() {
    // `a[i]` alone runs two iterations, so its stride is pending when the
    // two-access body starts and is confirmed by that body's first access.
    let nest = Nest {
        arrays: vec![0x1000, 0x80_0000],
        phases: vec![
            (vec![access(1, 0, 1, 0)], 2, 1000, 0),
            (vec![access(1, 0, 1, 0), access(2, 1, 1, 0)], 400, 1000, 2),
        ],
    };
    let b = check(&nest.events(), "pending at the start").unwrap();
    assert_eq!(b.nodes.len(), 2);
}

#[test]
fn a_progression_into_the_top_of_the_address_space() {
    // A long repeated run whose sweep over the top array ends in an access
    // past u64::MAX: the error names that access, in every framing.
    for (gap, size) in [(300u64, 8u8), (301, 8), (1000, 4), (2, 8)] {
        let top = u64::MAX - 8 * gap - 3;
        let body = vec![
            access(1, 0, 1, 0),
            Op::Access { pc: 2, kind: AccessKind::Write, size, array: 1, mult: 1, offset: 0 },
        ];
        let nest = Nest { arrays: vec![0x1000, top], phases: vec![(body, 5000, 5000, 0)] };
        let (kind, msg) = check(&nest.events(), "into the top").unwrap_err();
        assert_eq!(kind, io::ErrorKind::InvalidData);
        let at = top + 8 * gap;
        assert_eq!(
            msg,
            format!("access at {at:#x} size {size} wraps the address space in tid {TID}")
        );
    }
}
