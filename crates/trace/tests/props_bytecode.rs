//! Property-based validation of the trace bytecode: compilation round-trips
//! every event stream exactly, the streaming-sink route matches
//! recompilation of the recorded trace byte for byte, the decoder's size
//! hints are exact, and the encoder emits exactly the bytes of the
//! reference encoder kept below.
//!
//! The generators deliberately mix the shapes the encoder optimises for
//! (strided scans → `RUN`, short cycles → `LOOP`) with adversarial noise
//! (random touches, leaf bursts, near-`u64::MAX` addresses exercising the
//! wrapping delta arithmetic) so both the fast paths and the spill paths
//! of the windowed loop detector are hit.

// Test-only code: unwraps abort the test (the right failure mode).
#![allow(clippy::unwrap_used)]

use cadapt_trace::{compile, TraceCompiler, TraceEvent, TraceSink, Tracer};
use proptest::prelude::*;

/// One step of a generated workload, replayed identically into any sink.
#[derive(Debug, Clone)]
enum Op {
    /// A single touch of a small-universe block (re-accesses are common).
    Touch(u64),
    /// A touch near the top of the address space (wrapping deltas).
    TouchHigh(u64),
    /// A leaf mark.
    Leaf,
    /// A strided scan — what the encoder folds into `RUN` tokens.
    Strided { start: u64, stride: u64, len: usize },
    /// A repeated short cycle — what the loop detector folds into `LOOP`.
    Cycle { blocks: Vec<u64>, reps: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..40).prop_map(Op::Touch),
        (0u64..50).prop_map(|x| Op::TouchHigh(u64::MAX - x)),
        Just(Op::Leaf),
        ((0u64..1000), (0u64..9), (1usize..40)).prop_map(|(start, stride, len)| Op::Strided {
            start,
            stride,
            len
        }),
        (proptest::collection::vec(0u64..20, 1..6), (1usize..12))
            .prop_map(|(blocks, reps)| Op::Cycle { blocks, reps }),
    ]
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(), 0..60)
}

/// Replay the generated ops into any sink (block_words = 1, so touches are
/// block ids directly).
fn run_ops<S: TraceSink>(ops: &[Op], sink: &mut S) {
    for op in ops {
        match op {
            Op::Touch(b) | Op::TouchHigh(b) => sink.touch(*b),
            Op::Leaf => sink.leaf(),
            Op::Strided { start, stride, len } => {
                for i in 0..*len {
                    sink.touch(start.wrapping_add(stride.wrapping_mul(i as u64)));
                }
            }
            Op::Cycle { blocks, reps } => {
                for _ in 0..*reps {
                    for &b in blocks {
                        sink.touch(b);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Decoding the compiled program reproduces the recorded event vector
    /// exactly, and the program's stored counts equal the trace's.
    #[test]
    fn compilation_round_trips(ops in ops_strategy()) {
        let mut tracer = Tracer::new(1);
        run_ops(&ops, &mut tracer);
        let trace = tracer.into_trace();
        let program = compile(&trace);
        let decoded: Vec<_> = program.events().collect();
        prop_assert_eq!(decoded.as_slice(), trace.events());
        prop_assert_eq!(program.accesses(), trace.accesses());
        prop_assert_eq!(program.leaves(), trace.leaves());
        prop_assert_eq!(program.distinct_blocks(), trace.distinct_blocks());
    }

    /// Streaming events straight into a `TraceCompiler` (the structural
    /// emission route the kernels use) produces a program byte-identical
    /// to compiling the recorded trace after the fact.
    #[test]
    fn sink_route_equals_recompilation(ops in ops_strategy()) {
        let mut tracer = Tracer::new(1);
        run_ops(&ops, &mut tracer);
        let trace = tracer.into_trace();

        let mut compiler = TraceCompiler::new(1);
        run_ops(&ops, &mut compiler);
        let direct = compiler.finish();

        prop_assert_eq!(compile(&trace), direct);
    }

    /// Internal iteration (`fold`, the replay fast path) yields exactly
    /// the events external iteration (`next`) yields, from any split
    /// point — including states mid-run and mid-loop.
    #[test]
    fn internal_fold_equals_external_iteration(ops in ops_strategy(), split in 0usize..64) {
        let mut compiler = TraceCompiler::new(1);
        run_ops(&ops, &mut compiler);
        let program = compiler.finish();
        let via_next: Vec<_> = program.events().collect();
        let split = split.min(via_next.len());
        let mut iter = program.events();
        for _ in 0..split {
            iter.next();
        }
        let via_fold = iter.fold(Vec::new(), |mut v, e| { v.push(e); v });
        prop_assert_eq!(via_fold.as_slice(), &via_next[split..]);
    }

    /// The decoder's `size_hint` is exact at every step of iteration.
    #[test]
    fn size_hints_are_exact(ops in ops_strategy()) {
        let mut compiler = TraceCompiler::new(1);
        run_ops(&ops, &mut compiler);
        let program = compiler.finish();
        let total = usize::try_from(program.event_count()).unwrap();
        let mut events = program.events();
        for remaining in (1..=total).rev() {
            prop_assert_eq!(events.size_hint(), (remaining, Some(remaining)));
            prop_assert!(events.next().is_some());
        }
        prop_assert_eq!(events.size_hint(), (0, Some(0)));
        prop_assert!(events.next().is_none());
    }
}

/// The encoder in its original form: `Atom` enums whose loops own a heap
/// `Vec`, with loops found by slice compares. It is copied verbatim,
/// except that the `cast` helpers are spelled as plain casts and the
/// lint waivers are dropped. It is the oracle the flat encoder behind
/// `TraceCompiler` must match byte for byte: the other suites cannot
/// catch a format drift, because their round-trip and sink-vs-recompile
/// checks both go through the encoder under test.
#[allow(clippy::cast_possible_truncation)]
mod reference {
    use cadapt_trace::bytecode::Opcode;
    use cadapt_trace::TraceEvent;

    const MAX_PERIOD: usize = 16;
    const RETAIN: usize = 3 * MAX_PERIOD;
    const COMMIT_AT: usize = 2 * RETAIN;

    fn zigzag(d: u64) -> u64 {
        (d << 1) ^ 0u64.wrapping_sub(d >> 63)
    }

    fn push_varint(bytes: &mut Vec<u8>, mut x: u64) {
        while x >= 0x80 {
            bytes.push(((x & 0x7F) | 0x80) as u8);
            x >>= 7;
        }
        bytes.push(x as u8);
    }

    /// One encoder atom: an event (or folded group) that loop detection
    /// treats as a unit.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Atom {
        Leaf,
        Access(u64),
        Run { n: u64, d: u64 },
        Loop { reps: u64, body: Vec<Atom> },
    }

    fn serialize_atom(bytes: &mut Vec<u8>, atom: &Atom) {
        match atom {
            Atom::Leaf => bytes.push(Opcode::Leaf.byte()),
            Atom::Access(d) => {
                bytes.push(Opcode::Access.byte());
                push_varint(bytes, zigzag(*d));
            }
            Atom::Run { n, d } => {
                bytes.push(Opcode::Run.byte());
                push_varint(bytes, *n);
                push_varint(bytes, zigzag(*d));
            }
            Atom::Loop { reps, body } => {
                let mut tmp = Vec::new();
                for a in body {
                    serialize_atom(&mut tmp, a);
                }
                bytes.push(Opcode::Loop.byte());
                push_varint(bytes, *reps);
                push_varint(bytes, tmp.len() as u64);
                bytes.extend_from_slice(&tmp);
            }
        }
    }

    /// Online, bounded-memory bytecode encoder: run-length folds consecutive
    /// equal deltas, then detects repeated atom patterns (period ≤
    /// [`MAX_PERIOD`]) inside a sliding window of at most [`COMMIT_AT`] atoms.
    /// Atoms that leave the window are serialized and can no longer fold —
    /// the spill points depend only on the event stream, so encoding stays a
    /// pure function of the input.
    #[derive(Debug, Default)]
    struct Encoder {
        bytes: Vec<u8>,
        atoms: Vec<Atom>,
        /// Index into `atoms` of the most recent `Loop`, the only merge
        /// target for an arriving repetition of its body.
        last_loop: Option<usize>,
        run_d: u64,
        run_n: u64,
    }

    impl Encoder {
        fn delta(&mut self, d: u64) {
            if self.run_n > 0 && d == self.run_d {
                self.run_n += 1;
                return;
            }
            self.flush_run();
            self.run_d = d;
            self.run_n = 1;
        }

        fn leaf(&mut self) {
            self.flush_run();
            self.push_atom(Atom::Leaf);
        }

        fn flush_run(&mut self) {
            let (n, d) = (self.run_n, self.run_d);
            self.run_n = 0;
            match n {
                0 => {}
                1 => self.push_atom(Atom::Access(d)),
                _ => self.push_atom(Atom::Run { n, d }),
            }
        }

        fn push_atom(&mut self, atom: Atom) {
            self.atoms.push(atom);
            loop {
                if self.try_extend_loop() || self.try_form_loop() {
                    continue;
                }
                break;
            }
            if self.atoms.len() > COMMIT_AT {
                let spill = self.atoms.len() - RETAIN;
                for atom in self.atoms.drain(..spill) {
                    serialize_atom(&mut self.bytes, &atom);
                }
                self.last_loop = self.last_loop.and_then(|i| i.checked_sub(spill));
            }
        }

        /// If everything after the most recent `Loop` is exactly one more copy
        /// of its body, fold it in as one extra repetition.
        fn try_extend_loop(&mut self) -> bool {
            let Some(li) = self.last_loop else {
                return false;
            };
            let (head, tail) = self.atoms.split_at(li + 1);
            let Some(Atom::Loop { body, .. }) = head.last() else {
                return false;
            };
            if tail.len() != body.len() || tail != &body[..] {
                return false;
            }
            self.atoms.truncate(li + 1);
            if let Some(Atom::Loop { reps, .. }) = self.atoms.last_mut() {
                *reps += 1;
            }
            true
        }

        /// If the newest atoms form two back-to-back copies of a loop-free
        /// pattern, fold them into a fresh two-repetition `Loop`. Smallest
        /// period wins, keeping the encoding canonical.
        fn try_form_loop(&mut self) -> bool {
            let n = self.atoms.len();
            if matches!(self.atoms.last(), None | Some(Atom::Loop { .. })) {
                return false;
            }
            for p in 1..=MAX_PERIOD.min(n / 2) {
                // Cheap gate before the full window compare: the halves can
                // only match if the newest atom equals its image one period
                // back.
                if self.atoms[n - 1] != self.atoms[n - 1 - p] {
                    continue;
                }
                let first = &self.atoms[n - 2 * p..n - p];
                if first != &self.atoms[n - p..] {
                    continue;
                }
                if first.iter().any(|a| matches!(a, Atom::Loop { .. })) {
                    continue; // bodies stay flat
                }
                let body: Vec<Atom> = self.atoms[n - p..].to_vec();
                self.atoms.truncate(n - 2 * p);
                self.atoms.push(Atom::Loop { reps: 2, body });
                self.last_loop = Some(self.atoms.len() - 1);
                return true;
            }
            false
        }

        fn finish(mut self) -> Vec<u8> {
            self.flush_run();
            let atoms = std::mem::take(&mut self.atoms);
            for atom in &atoms {
                serialize_atom(&mut self.bytes, atom);
            }
            self.bytes
        }
    }

    /// Encode `events` the way `TraceCompiler::push_event` feeds them.
    pub fn encode(events: &[TraceEvent]) -> Vec<u8> {
        let mut enc = Encoder::default();
        let mut prev_block = 0u64;
        for &event in events {
            match event {
                TraceEvent::Access(block) => {
                    enc.delta(block.wrapping_sub(prev_block));
                    prev_block = block;
                }
                TraceEvent::Leaf => enc.leaf(),
            }
        }
        enc.finish()
    }
}

/// One step of a generated pattern.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A touch in a small universe.
    Touch(u64),
    /// A touch anywhere in the id space: deltas up to ten varint bytes.
    Far(u64),
    /// A touch near `u64::MAX`: wrapping deltas.
    Top(u64),
    /// A leaf mark.
    Leaf,
    /// A scan with a small or a near-`u64::MAX` (negative) stride.
    Scan { stride: u64, len: u64 },
}

/// One piece of a generated encoder stream.
#[derive(Debug, Clone)]
enum Piece {
    /// Aperiodic touches, one atom each: they fill the window toward the
    /// spill at 96 atoms.
    Noise { seed: u64, len: usize },
    /// A burst of leaf marks.
    Leaves(usize),
    /// `reps` copies of a pattern of up to 20 steps, some of them longer
    /// than the encoder's largest loop period.
    Repeat { steps: Vec<Step>, reps: usize },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u64..24).prop_map(Step::Touch),
        (0u64..=u64::MAX).prop_map(Step::Far),
        (0u64..8).prop_map(|x| Step::Top(u64::MAX - x)),
        Just(Step::Leaf),
        ((0u64..5), (1u64..4)).prop_map(|(stride, len)| Step::Scan { stride, len }),
        ((0u64..5), (1u64..4)).prop_map(|(s, len)| Step::Scan {
            stride: u64::MAX - s,
            len
        }),
        // Runs of 128 or more: two-byte run lengths inside loop bodies.
        ((1u64..3), (120u64..300)).prop_map(|(stride, len)| Step::Scan { stride, len }),
    ]
}

fn piece_strategy() -> impl Strategy<Value = Piece> {
    prop_oneof![
        ((0u64..=u64::MAX), (1usize..130)).prop_map(|(seed, len)| Piece::Noise { seed, len }),
        (1usize..40).prop_map(Piece::Leaves),
        (
            proptest::collection::vec(step_strategy(), 1..=20),
            (1usize..12)
        )
            .prop_map(|(steps, reps)| Piece::Repeat { steps, reps }),
        (
            proptest::collection::vec(step_strategy(), 1..=4),
            (1usize..60)
        )
            .prop_map(|(steps, reps)| Piece::Repeat { steps, reps }),
    ]
}

/// The events of a generated stream, block ids as given.
fn stream_events(pieces: &[Piece]) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let step = |events: &mut Vec<TraceEvent>, s: Step| match s {
        Step::Touch(b) | Step::Far(b) | Step::Top(b) => events.push(TraceEvent::Access(b)),
        Step::Leaf => events.push(TraceEvent::Leaf),
        Step::Scan { stride, len } => {
            for i in 0..len {
                events.push(TraceEvent::Access(
                    1000u64.wrapping_add(stride.wrapping_mul(i)),
                ));
            }
        }
    };
    for piece in pieces {
        match piece {
            Piece::Noise { seed, len } => {
                let mut x = *seed;
                for _ in 0..*len {
                    x = x
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    events.push(TraceEvent::Access(x >> 40));
                }
            }
            Piece::Leaves(n) => events.extend(std::iter::repeat_n(TraceEvent::Leaf, *n)),
            Piece::Repeat { steps, reps } => {
                for _ in 0..*reps {
                    for &s in steps {
                        step(&mut events, s);
                    }
                }
            }
        }
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// The encoder behind `TraceCompiler` emits exactly the reference
    /// encoder's bytes: the same loop choices and the same varints.
    #[test]
    fn encoder_matches_the_reference_encoder(
        pieces in proptest::collection::vec(piece_strategy(), 0..40)
    ) {
        let events = stream_events(&pieces);
        let mut compiler = TraceCompiler::new(1);
        for &event in &events {
            compiler.push_event(event);
        }
        let program = compiler.finish();
        let expected = reference::encode(&events);
        prop_assert_eq!(program.bytes(), expected.as_slice());
    }
}
