//! Compiled trace replay: compact bytecode programs for block traces.
//!
//! A recorded [`BlockTrace`] spends 16 bytes per [`TraceEvent`] and must be
//! materialised in full before anything can replay it. This module lowers
//! the same event stream into a compact bytecode — delta-encoded block
//! addresses, run-length ops for scans, counted-loop ops for the repeating
//! access patterns recursive kernels produce, and explicit leaf marks —
//! plus a small decoder VM that streams the events back out.
//!
//! # Opcodes
//!
//! | op       | byte | operands                               | meaning |
//! |----------|------|----------------------------------------|---------|
//! | `LEAF`   | 0x00 | —                                      | a base case completed here |
//! | `ACCESS` | 0x01 | svarint Δ                              | access block `prev + Δ` |
//! | `RUN`    | 0x02 | varint n, svarint Δ                    | n accesses, each advancing by Δ |
//! | `LOOP`   | 0x03 | varint reps, varint len, `len` body bytes | replay the body `reps` times |
//!
//! Varints are LEB128; svarints additionally zigzag-map the wrapping
//! 64-bit delta so small negative strides stay short. Loop bodies are
//! flat (no nested `LOOP`), which keeps the decoder to one resident loop
//! register and the hot path branch-light.
//!
//! # Equivalence
//!
//! Deltas are *wrapping* differences of consecutive block numbers, so a
//! decoded stream reproduces the recorded one exactly: every `ACCESS`/`RUN`
//! adds the same delta sequence the encoder subtracted, starting from the
//! same implicit block 0, and `LOOP` bodies only ever fold runs of atoms
//! that compared equal delta-for-delta. The compiler is a pure fold over
//! the event stream (no time, no randomness, no iteration over hash
//! state), so structural emission from an instrumented kernel and
//! recompilation of its recorded trace produce byte-identical programs —
//! the property the corpus CRC pins rely on.
//!
//! The compiler implements [`TraceSink`], so every instrumented kernel can
//! emit bytecode *directly*, without materialising the event vector; see
//! the `*_compiled` entry points in the kernel modules.

use crate::block_map::DistinctBlocks;
use crate::tracer::{BlockTrace, TraceEvent, TraceSink};
use cadapt_core::{cast, checksum, Blocks, Leaves};

/// The opcode vocabulary. Discriminants are the encoded bytes, so the
/// enum is the single source of truth for the wire format; every
/// dispatch site matches on `Opcode` (wildcard-free and exhaustive —
/// enforced by `cadapt-lint`'s `vm-dispatch` rule), so adding an opcode
/// forces every site to handle it explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// A base case completed here.
    Leaf = 0x00,
    /// Access block `prev + Δ` (svarint Δ follows).
    Access = 0x01,
    /// `n` accesses, each advancing by Δ (varint n, svarint Δ follow).
    Run = 0x02,
    /// Replay the `len`-byte body `reps` times (varint reps, varint len,
    /// body bytes follow).
    Loop = 0x03,
}

impl Opcode {
    /// The encoded byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        self as u8
    }

    /// The one byte→opcode funnel. Unknown bytes decode to `None` and
    /// every caller must handle that loudly (end-of-program, never a
    /// silent skip); byte-level knowledge lives only here and in
    /// [`Opcode::byte`].
    #[must_use]
    pub fn decode(b: u8) -> Option<Opcode> {
        match b {
            0x00 => Some(Opcode::Leaf),
            0x01 => Some(Opcode::Access),
            0x02 => Some(Opcode::Run),
            0x03 => Some(Opcode::Loop),
            _ => None,
        }
    }
}

/// Longest atom period the encoder will fold into a `LOOP`.
const MAX_PERIOD: usize = 16;
/// Unwritten atoms a spill keeps. A new loop folds only the newest
/// `2 · MAX_PERIOD` atoms, so no older atom can change again.
const RETAIN: usize = 2 * MAX_PERIOD;
/// Slots in the encoder's window: [`MAX_PERIOD`] placeholders, then the
/// unwritten atoms. A full window spills.
const WINDOW: usize = 256;
/// `THRESHOLD[i]` is `MAX_PERIOD - i`, the period of the image in lane `i`
/// of the period compare.
const THRESHOLD: [u8; MAX_PERIOD] = [16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1];
/// The key of every atom too large to pack (see [`Slot::key`]).
const ESCAPE: u32 = u32::MAX;
/// Spare bytes the writer keeps past the program's end: room for the
/// longest atom header, an opcode and two ten-byte varints.
const ROOM: usize = 32;
// The opcode and both ten-byte varints must fit: `put_varint` skips bytes
// past the room, so a smaller one would leave zeros in the program
// instead of failing.
const _: () = assert!(ROOM > 2 * 10);

/// Zigzag-map a wrapping delta so small magnitudes of either sign encode
/// short. Interpreting `d` as two's-complement: `0, -1, 1, -2, …` map to
/// `0, 1, 2, 3, …`.
fn zigzag(d: u64) -> u64 {
    (d << 1) ^ 0u64.wrapping_sub(d >> 63)
}

/// Inverse of [`zigzag`].
fn unzigzag(z: u64) -> u64 {
    (z >> 1) ^ 0u64.wrapping_sub(z & 1)
}

/// Write `x` as an LEB128 varint (7 value bits per byte, high bit =
/// continuation) at `bytes[at..]`, returning the position past it.
fn put_varint(bytes: &mut [u8], mut at: usize, mut x: u64) -> usize {
    while x >= 0x80 {
        if let Some(b) = bytes.get_mut(at) {
            *b = cast::u8_from_u64((x & 0x7F) | 0x80);
        }
        x >>= 7;
        at += 1;
    }
    if let Some(b) = bytes.get_mut(at) {
        *b = cast::u8_from_u64(x);
    }
    at + 1
}

/// Read one LEB128 varint at `*pos`, advancing it. Truncated or
/// over-long input — malformed, the encoder never emits it — yields the
/// bits read so far without advancing past the end; the opcode dispatch
/// below then stops at the stream end instead of panicking.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0u32;
    while shift < 64 {
        let Some(&b) = bytes.get(*pos) else { break };
        *pos += 1;
        x |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            break;
        }
        shift += 7;
    }
    x
}

/// Bytes of the LEB128 varint [`put_varint`] writes for `x`.
fn varint_len(x: u64) -> u64 {
    u64::from(64 - (x | 1).leading_zeros()).div_ceil(7)
}

/// One loop-free encoder atom: a leaf mark (`n == 0`), a lone access by
/// delta `d` (`n == 1`) or a run of `n ≥ 2` accesses each advancing by
/// `d`. Every atom has exactly one `(n, d)`, so two slots are equal
/// exactly when their encodings are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    n: u64,
    d: u64,
}

impl Slot {
    const LEAF: Slot = Slot { n: 0, d: 0 };
    /// Equal to no atom (a leaf has `d == 0`): the encoder's placeholder
    /// before the first atom of its tail.
    const NONE: Slot = Slot { n: 0, d: 1 };

    /// `n` in the low byte and the zigzagged delta above it, for `n <
    /// 255` and zigzagged deltas below 2²⁴; [`ESCAPE`] otherwise. Two
    /// atoms have equal keys exactly when they are equal, unless both keys
    /// are [`ESCAPE`], whose low byte no packed key has. The placeholder's
    /// key, 0x200, is no atom's: only a leaf has `n == 0`, and its key is 0.
    fn key(self) -> u32 {
        let z = zigzag(self.d);
        if self.n < 0xFF && z < 1 << 24 {
            u32::try_from(z << 8 | self.n).unwrap_or(ESCAPE)
        } else {
            ESCAPE
        }
    }

    /// Encode into `room`, returning the bytes written.
    fn encode(self, room: &mut [u8; ROOM]) -> usize {
        match self.n {
            0 => {
                room[0] = Opcode::Leaf.byte();
                1
            }
            1 => {
                room[0] = Opcode::Access.byte();
                put_varint(room, 1, zigzag(self.d))
            }
            n => {
                room[0] = Opcode::Run.byte();
                let at = put_varint(room, 1, n);
                put_varint(room, at, zigzag(self.d))
            }
        }
    }

    /// Bytes [`Slot::encode`] writes.
    fn byte_len(self) -> u64 {
        match self.n {
            0 => 1,
            1 => 1 + varint_len(zigzag(self.d)),
            n => 1 + varint_len(n) + varint_len(zigzag(self.d)),
        }
    }
}

/// A `LOOP` atom: `reps` copies of the first `len` slots of `body`, kept
/// inline so forming or growing a loop never allocates.
#[derive(Debug, Clone, Copy)]
struct LoopSlot {
    /// 0 when there is no loop.
    reps: u64,
    len: usize,
    body: [Slot; MAX_PERIOD],
    /// Encoded length of the body, summed from its slots.
    body_bytes: u64,
}

impl LoopSlot {
    const NONE: LoopSlot = LoopSlot {
        reps: 0,
        len: 0,
        body: [Slot::LEAF; MAX_PERIOD],
        body_bytes: 0,
    };

    fn body(&self) -> &[Slot] {
        self.body.get(..self.len).unwrap_or_default()
    }
}

/// The program bytes under construction. An atom is encoded straight into
/// the [`ROOM`] bytes kept past the end, so writing one checks the
/// capacity once, not once per byte.
#[derive(Debug, Default)]
struct Writer {
    /// `len` program bytes, then at least [`ROOM`] spare ones.
    buf: Vec<u8>,
    len: usize,
}

impl Writer {
    /// The [`ROOM`] bytes past the end, growing the buffer first if needed.
    fn room(&mut self) -> Option<&mut [u8; ROOM]> {
        if self.buf.len().saturating_sub(self.len) < ROOM {
            let grown = (2 * self.buf.len()).max(self.len + ROOM);
            self.buf.resize(grown, 0);
        }
        self.buf.get_mut(self.len..)?.first_chunk_mut()
    }

    fn slot(&mut self, slot: Slot) {
        let Some(room) = self.room() else {
            return; // unreachable: `room` grows the buffer first
        };
        let n = slot.encode(room);
        self.len += n;
    }

    fn loop_slot(&mut self, lp: &LoopSlot) {
        let Some(room) = self.room() else {
            return; // unreachable: `room` grows the buffer first
        };
        room[0] = Opcode::Loop.byte();
        let at = put_varint(room, 1, lp.reps);
        let n = put_varint(room, at, lp.body_bytes);
        self.len += n;
        for &slot in lp.body() {
            self.slot(slot);
        }
    }

    fn finish(mut self) -> Vec<u8> {
        self.buf.truncate(self.len);
        self.buf
    }
}

/// Online, bounded-memory bytecode encoder. Run-length folding turns
/// consecutive equal deltas into atoms; loop detection then works on a
/// sliding window of unwritten atoms (a loop counts as one), greedily, on
/// every new atom:
///
/// 1. if the atoms after the newest `LOOP` are one more copy of its body,
///    the loop gains a repetition;
/// 2. otherwise, if the newest `2p` atoms are two copies of a loop-free
///    pattern (smallest period `p ≤ MAX_PERIOD` first), they become a
///    two-repetition `LOOP`.
///
/// Nothing else changes an unwritten atom, so an atom is written out once
/// neither step can reach it: the newest loop when a newer one forms or
/// the window fills (more than [`MAX_PERIOD`] atoms then follow it, so
/// step 1 no longer applies), the atoms before a new loop's pattern, and,
/// when the window fills, all but the newest [`RETAIN`] atoms. When an
/// atom is written never changes a byte. Step 1 is one compare per atom
/// against the body slot at the tail's length (`extendable` drops to 0 at
/// the first mismatch). Step 2 is one vector compare per atom: every atom
/// has a `u32` key ([`Slot::key`]), the keys of the [`MAX_PERIOD`] slots
/// before the new atom are compared with its key at once, and `matched`
/// tracks, for every period, how many of the newest slots equal their
/// image one period back. Encoding is a pure function of the event
/// stream.
#[derive(Debug)]
struct Encoder {
    out: Writer,
    /// The newest loop until it is written out; `reps == 0` when there
    /// is none.
    last_loop: LoopSlot,
    /// The body length of `last_loop` while every tail atom equals the
    /// body slot at its position, so the tail can still become one more
    /// copy; 0 once one does not.
    extendable: usize,
    /// [`MAX_PERIOD`] [`Slot::NONE`] placeholders, then the unwritten
    /// atoms after `last_loop` (every unwritten atom if there is none) up
    /// to `end`. With the placeholders every period has an image, so the
    /// compares run over a fixed-length array.
    slots: [Slot; WINDOW],
    /// `keys[i] == slots[i].key()`.
    keys: [u32; WINDOW],
    end: usize,
    /// `matched[MAX_PERIOD - p]`: how many of the newest tail atoms equal
    /// the slot `p` before them. Always below `p` between atoms, since
    /// reaching `p` forms a loop. No placeholder equals an atom, so the
    /// counts restart by themselves once the tail is emptied.
    matched: [u8; MAX_PERIOD],
    run_d: u64,
    run_n: u64,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder {
            out: Writer::default(),
            last_loop: LoopSlot::NONE,
            extendable: 0,
            slots: [Slot::NONE; WINDOW],
            keys: [Slot::NONE.key(); WINDOW],
            end: MAX_PERIOD,
            matched: [0; MAX_PERIOD],
            run_d: 0,
            run_n: 0,
        }
    }
}

impl Encoder {
    #[inline]
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
        self.push_atom(Slot::LEAF);
    }

    fn flush_run(&mut self) {
        let (n, d) = (self.run_n, self.run_d);
        self.run_n = 0;
        if n > 0 {
            self.push_atom(Slot { n, d });
        }
    }

    fn push_atom(&mut self, atom: Slot) {
        let at = self.end;
        let key = atom.key();
        if let (Some(slot), Some(k)) = (self.slots.get_mut(at), self.keys.get_mut(at)) {
            *slot = atom;
            *k = key;
        }
        self.end = at + 1;
        let tail = self.end - MAX_PERIOD;
        if tail <= self.extendable {
            if self.last_loop.body.get(tail - 1) != Some(&atom) {
                self.extendable = 0;
            } else if tail == self.extendable {
                self.last_loop.reps += 1;
                self.end = MAX_PERIOD;
                return;
            }
        }
        if self.period_ready(at, atom, key) {
            self.form_loop();
        } else if self.end == WINDOW {
            self.spill();
        }
    }

    /// Update `matched` for the atom just stored at `at`; true if some
    /// period's count reached it. The slots one to [`MAX_PERIOD`] places
    /// before the new atom, oldest first, are its images: the image of
    /// period p sits in lane `MAX_PERIOD - p`, as its count does. Whether
    /// an image matches is data, so the update is branch-free, and on
    /// plain arrays the compare, the count update and the threshold test
    /// each compile to a few vector instructions.
    fn period_ready(&mut self, at: usize, atom: Slot, key: u32) -> bool {
        let Some(images) = self
            .keys
            .get(..at)
            .and_then(<[u32]>::last_chunk::<MAX_PERIOD>)
        else {
            return false; // unreachable: the placeholders are never removed
        };
        let same = if key == ESCAPE {
            self.escaped_lanes(at, atom)
        } else {
            images.map(|image| if image == key { u8::MAX } else { 0 })
        };
        let mut matched = self.matched;
        let mut any = false;
        for ((m, same), t) in matched.iter_mut().zip(same).zip(THRESHOLD) {
            *m = m.wrapping_add(1) & same;
            any |= *m == t;
        }
        self.matched = matched;
        any
    }

    /// The lane masks of [`Self::period_ready`] for an [`ESCAPE`]d atom,
    /// whose key says nothing: compare the slots themselves.
    #[cold]
    fn escaped_lanes(&self, at: usize, atom: Slot) -> [u8; MAX_PERIOD] {
        let images = self
            .slots
            .get(..at)
            .and_then(<[Slot]>::last_chunk::<MAX_PERIOD>);
        images.map_or([0; MAX_PERIOD], |images| {
            images.map(|image| if image == atom { u8::MAX } else { 0 })
        })
    }

    /// Write out the newest loop, if any.
    fn retire_loop(&mut self) {
        if self.last_loop.reps > 0 {
            self.out.loop_slot(&self.last_loop);
            self.last_loop.reps = 0;
            self.extendable = 0;
        }
    }

    /// Fold the newest `2p` tail atoms, two copies of one pattern, into a
    /// fresh two-repetition loop, writing out the old loop and the atoms
    /// before the pattern. `p` is the smallest period whose count reached
    /// it: lanes run from period [`MAX_PERIOD`] down to 1, so it is the
    /// last such lane.
    #[inline(never)]
    fn form_loop(&mut self) {
        let Some(lane) = self
            .matched
            .iter()
            .zip(THRESHOLD)
            .rposition(|(&m, t)| m == t)
        else {
            return; // unreachable: called once a count reached its period
        };
        let p = MAX_PERIOD - lane;
        self.retire_loop();
        let end = self.end;
        for &slot in self.slots.get(MAX_PERIOD..end - 2 * p).unwrap_or_default() {
            self.out.slot(slot);
        }
        let mut lp = LoopSlot {
            reps: 2,
            len: p,
            ..LoopSlot::NONE
        };
        let body = self.slots.get(end - p..end).unwrap_or_default();
        for (dst, &slot) in lp.body.iter_mut().zip(body) {
            *dst = slot;
            lp.body_bytes += slot.byte_len();
        }
        self.last_loop = lp;
        self.extendable = p;
        self.end = MAX_PERIOD;
    }

    /// Write out all but the newest [`RETAIN`] atoms of a full window, the
    /// loop first, and move the kept ones down behind the placeholders.
    #[inline(never)]
    fn spill(&mut self) {
        self.retire_loop();
        let keep = self.end - RETAIN;
        for &slot in self.slots.get(MAX_PERIOD..keep).unwrap_or_default() {
            self.out.slot(slot);
        }
        self.slots.copy_within(keep..self.end, MAX_PERIOD);
        self.keys.copy_within(keep..self.end, MAX_PERIOD);
        self.end = MAX_PERIOD + RETAIN;
    }

    fn finish(mut self) -> Vec<u8> {
        self.flush_run();
        self.retire_loop();
        for &slot in self.slots.get(MAX_PERIOD..self.end).unwrap_or_default() {
            self.out.slot(slot);
        }
        self.out.finish()
    }
}

/// Streaming bytecode compiler for block traces.
///
/// Feed it events — either through the [`TraceSink`] interface from an
/// instrumented kernel (word addresses, mapped to blocks exactly like
/// [`crate::Tracer`] maps them) or through [`TraceCompiler::push_event`]
/// from an already-recorded trace — and [`TraceCompiler::finish`] yields
/// the compiled [`TraceProgram`]. Both routes produce byte-identical
/// programs for the same event stream.
#[derive(Debug)]
pub struct TraceCompiler {
    block_words: u64,
    prev_block: u64,
    seen: DistinctBlocks,
    accesses: u64,
    leaves: Leaves,
    enc: Encoder,
}

impl TraceCompiler {
    /// A compiler mapping `block_words` consecutive words to one block
    /// (only relevant for the [`TraceSink`] route; [`Self::push_event`]
    /// streams block numbers as-is).
    ///
    /// # Panics
    ///
    /// Panics if `block_words == 0`.
    #[must_use]
    pub fn new(block_words: u64) -> Self {
        assert!(block_words >= 1, "blocks must hold at least one word");
        TraceCompiler {
            block_words,
            prev_block: 0,
            seen: DistinctBlocks::default(),
            accesses: 0,
            leaves: 0,
            enc: Encoder::default(),
        }
    }

    /// Compile an access to block number `block`.
    #[inline]
    pub fn push_block(&mut self, block: u64) {
        self.seen.insert(block);
        self.accesses += 1;
        self.enc.delta(block.wrapping_sub(self.prev_block));
        self.prev_block = block;
    }

    /// Compile a leaf mark.
    pub fn push_leaf(&mut self) {
        self.leaves += 1;
        self.enc.leaf();
    }

    /// Compile one recorded event.
    pub fn push_event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Access(block) => self.push_block(block),
            TraceEvent::Leaf => self.push_leaf(),
        }
    }

    /// Finish compilation.
    #[must_use]
    pub fn finish(self) -> TraceProgram {
        TraceProgram {
            bytes: self.enc.finish(),
            accesses: self.accesses,
            distinct_blocks: self.seen.len(),
            leaves: self.leaves,
        }
    }
}

impl TraceSink for TraceCompiler {
    fn touch(&mut self, addr: u64) {
        self.push_block(addr / self.block_words);
    }

    fn leaf(&mut self) {
        self.push_leaf();
    }
}

/// A compiled trace: the bytecode plus the aggregate counts a replayer
/// needs up front (so none of them require decoding the stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceProgram {
    bytes: Vec<u8>,
    accesses: u64,
    distinct_blocks: Blocks,
    leaves: Leaves,
}

impl TraceProgram {
    /// The raw bytecode.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Bytecode size in bytes (compare against 16 bytes per event of the
    /// materialised `Vec<TraceEvent>`).
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Total accesses (excluding leaf marks), O(1).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of distinct blocks touched.
    #[must_use]
    pub fn distinct_blocks(&self) -> Blocks {
        self.distinct_blocks
    }

    /// Total base-case marks.
    #[must_use]
    pub fn leaves(&self) -> Leaves {
        self.leaves
    }

    /// Total events the program decodes to (accesses + leaves).
    #[must_use]
    pub fn event_count(&self) -> u128 {
        u128::from(self.accesses) + self.leaves
    }

    /// IEEE CRC-32 of the bytecode — the checksum the corpus goldens pin.
    #[must_use]
    pub fn crc32(&self) -> u32 {
        checksum::crc32(&self.bytes)
    }

    /// A streaming decoder over the program's events; yields exactly the
    /// recorded event sequence with an exact `size_hint`.
    #[must_use]
    pub fn events(&self) -> ProgramEvents<'_> {
        ProgramEvents {
            bytes: &self.bytes,
            pos: 0,
            prev_block: 0,
            run_left: 0,
            run_d: 0,
            loop_start: 0,
            loop_end: usize::MAX,
            reps_left: 0,
            remaining: self.event_count(),
        }
    }
}

/// The decoder VM: a streaming iterator of [`TraceEvent`]s over a
/// [`TraceProgram`]. State is four registers (position, previous block,
/// one pending run, one active loop) — decoding allocates nothing.
#[derive(Debug, Clone)]
pub struct ProgramEvents<'a> {
    bytes: &'a [u8],
    pos: usize,
    prev_block: u64,
    run_left: u64,
    run_d: u64,
    loop_start: usize,
    /// `usize::MAX` when no loop is active (a position the cursor can
    /// never reach, so the hot path is a single compare).
    loop_end: usize,
    reps_left: u64,
    remaining: u128,
}

impl ProgramEvents<'_> {
    /// Decode the flat atom sequence in `bytes[pos..end]` (loop bodies and
    /// the tails of partially-consumed loops — never a nested `OP_LOOP`,
    /// which the encoder cannot emit) through `f`, returning the updated
    /// previous-block register and accumulator plus whether the slice
    /// decoded cleanly. The inner run loop is the hot path of internal
    /// iteration: no per-event opcode dispatch, no iterator state
    /// spilling.
    #[inline]
    fn fold_atoms<B, F: FnMut(B, TraceEvent) -> B>(
        bytes: &[u8],
        mut pos: usize,
        end: usize,
        mut prev: u64,
        mut acc: B,
        f: &mut F,
    ) -> (u64, B, bool) {
        while pos < end {
            let Some(&op) = bytes.get(pos) else {
                return (prev, acc, false);
            };
            pos += 1;
            match Opcode::decode(op) {
                Some(Opcode::Access) => {
                    let d = unzigzag(read_varint(bytes, &mut pos));
                    prev = prev.wrapping_add(d);
                    acc = f(acc, TraceEvent::Access(prev));
                }
                Some(Opcode::Run) => {
                    let n = read_varint(bytes, &mut pos);
                    let d = unzigzag(read_varint(bytes, &mut pos));
                    for _ in 0..n {
                        prev = prev.wrapping_add(d);
                        acc = f(acc, TraceEvent::Access(prev));
                    }
                }
                Some(Opcode::Leaf) => {
                    acc = f(acc, TraceEvent::Leaf);
                }
                // Loop bodies are flat (the encoder cannot emit a nested
                // loop), so a `Loop` here is as malformed as an unknown
                // byte: report the slice as not cleanly decoded.
                Some(Opcode::Loop) | None => return (prev, acc, false),
            }
        }
        (prev, acc, true)
    }
}

impl Iterator for ProgramEvents<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.run_left > 0 {
            self.run_left -= 1;
            self.prev_block = self.prev_block.wrapping_add(self.run_d);
            self.remaining = self.remaining.saturating_sub(1);
            return Some(TraceEvent::Access(self.prev_block));
        }
        loop {
            if self.pos == self.loop_end {
                if self.reps_left > 0 {
                    self.reps_left -= 1;
                    self.pos = self.loop_start;
                } else {
                    self.loop_end = usize::MAX;
                }
                continue;
            }
            let &op = self.bytes.get(self.pos)?;
            self.pos += 1;
            match Opcode::decode(op) {
                Some(Opcode::Access) => {
                    let d = unzigzag(read_varint(self.bytes, &mut self.pos));
                    self.prev_block = self.prev_block.wrapping_add(d);
                    self.remaining = self.remaining.saturating_sub(1);
                    return Some(TraceEvent::Access(self.prev_block));
                }
                Some(Opcode::Run) => {
                    let n = read_varint(self.bytes, &mut self.pos);
                    self.run_d = unzigzag(read_varint(self.bytes, &mut self.pos));
                    self.run_left = n.saturating_sub(1);
                    self.prev_block = self.prev_block.wrapping_add(self.run_d);
                    self.remaining = self.remaining.saturating_sub(1);
                    return Some(TraceEvent::Access(self.prev_block));
                }
                Some(Opcode::Leaf) => {
                    self.remaining = self.remaining.saturating_sub(1);
                    return Some(TraceEvent::Leaf);
                }
                Some(Opcode::Loop) => {
                    let reps = read_varint(self.bytes, &mut self.pos);
                    let len = cast::usize_from_u64(read_varint(self.bytes, &mut self.pos));
                    if reps == 0 {
                        self.pos += len;
                    } else if len > 0 {
                        self.loop_start = self.pos;
                        self.loop_end = self.pos + len;
                        self.reps_left = reps - 1;
                    }
                }
                // The encoder emits no other opcode; treat an unknown
                // byte as end-of-program rather than guessing.
                None => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match usize::try_from(self.remaining) {
            Ok(n) => (n, Some(n)),
            Err(_) => (usize::MAX, None),
        }
    }

    /// Internal iteration: decode the rest of the program through `f`
    /// with tight per-opcode loops instead of per-event `next()` dispatch.
    /// This is the replay-many fast path (`for_each` routes through it);
    /// it yields exactly the events `next()` would have yielded from the
    /// current state — pending run and partially-replayed loop included —
    /// which the round-trip tests pin at every split point.
    fn fold<B, F>(mut self, init: B, mut f: F) -> B
    where
        F: FnMut(B, TraceEvent) -> B,
    {
        let mut acc = init;
        while self.run_left > 0 {
            self.run_left -= 1;
            self.prev_block = self.prev_block.wrapping_add(self.run_d);
            acc = f(acc, TraceEvent::Access(self.prev_block));
        }
        let bytes = self.bytes;
        let mut prev = self.prev_block;
        let mut pos = self.pos;
        if self.loop_end != usize::MAX {
            // Finish the rep the cursor is inside, then the queued reps.
            let end = self.loop_end;
            let (p, a, clean) = Self::fold_atoms(bytes, pos, end, prev, acc, &mut f);
            prev = p;
            acc = a;
            if !clean {
                return acc;
            }
            for _ in 0..self.reps_left {
                let (p, a, clean) =
                    Self::fold_atoms(bytes, self.loop_start, end, prev, acc, &mut f);
                prev = p;
                acc = a;
                if !clean {
                    return acc;
                }
            }
            pos = end;
        }
        while let Some(&op) = bytes.get(pos) {
            pos += 1;
            match Opcode::decode(op) {
                Some(Opcode::Access) => {
                    let d = unzigzag(read_varint(bytes, &mut pos));
                    prev = prev.wrapping_add(d);
                    acc = f(acc, TraceEvent::Access(prev));
                }
                Some(Opcode::Run) => {
                    let n = read_varint(bytes, &mut pos);
                    let d = unzigzag(read_varint(bytes, &mut pos));
                    for _ in 0..n {
                        prev = prev.wrapping_add(d);
                        acc = f(acc, TraceEvent::Access(prev));
                    }
                }
                Some(Opcode::Leaf) => {
                    acc = f(acc, TraceEvent::Leaf);
                }
                Some(Opcode::Loop) => {
                    let reps = read_varint(bytes, &mut pos);
                    let len = cast::usize_from_u64(read_varint(bytes, &mut pos));
                    let end = pos.saturating_add(len).min(bytes.len());
                    for _ in 0..reps {
                        let (p, a, clean) = Self::fold_atoms(bytes, pos, end, prev, acc, &mut f);
                        prev = p;
                        acc = a;
                        if !clean {
                            return acc;
                        }
                    }
                    pos = end;
                }
                // Unknown byte: end-of-program, same as `next()`.
                None => return acc,
            }
        }
        acc
    }
}

impl std::iter::FusedIterator for ProgramEvents<'_> {}

/// Compile an already-recorded trace. The result is byte-identical to
/// what structural emission through a [`TraceCompiler`] sink produces for
/// the same kernel (asserted across the corpus in the golden tests).
#[must_use]
pub fn compile(trace: &BlockTrace) -> TraceProgram {
    let mut compiler = TraceCompiler::new(1);
    for &event in trace.events() {
        compiler.push_event(event);
    }
    compiler.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::Tracer;

    fn decode(p: &TraceProgram) -> Vec<TraceEvent> {
        p.events().collect()
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for d in [0u64, 1, 2, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1] {
            assert_eq!(unzigzag(zigzag(d)), d, "delta {d:#x}");
        }
        // Small magnitudes of either sign encode small.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(u64::MAX), 1); // two's-complement −1
    }

    #[test]
    fn varint_round_trips() {
        let mut bytes = [0u8; 64];
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX];
        let mut end = 0;
        for &v in &values {
            let next = put_varint(&mut bytes, end, v);
            assert_eq!(cast::u64_from_usize(next - end), varint_len(v));
            end = next;
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&bytes, &mut pos), v);
        }
        assert_eq!(pos, end);
    }

    #[test]
    fn empty_program_yields_nothing() {
        let program = TraceCompiler::new(1).finish();
        assert_eq!(decode(&program), Vec::new());
        assert_eq!(program.event_count(), 0);
        assert_eq!(program.byte_len(), 0);
    }

    #[test]
    fn hand_stream_round_trips_with_extreme_blocks() {
        let events = vec![
            TraceEvent::Access(5),
            TraceEvent::Access(u64::MAX),
            TraceEvent::Leaf,
            TraceEvent::Access(0),
            TraceEvent::Access(0),
            TraceEvent::Access(3),
            TraceEvent::Leaf,
            TraceEvent::Leaf,
        ];
        let mut c = TraceCompiler::new(1);
        for &e in &events {
            c.push_event(e);
        }
        let program = c.finish();
        assert_eq!(decode(&program), events);
        assert_eq!(program.accesses(), 5);
        assert_eq!(program.leaves(), 3);
        assert_eq!(program.distinct_blocks(), 4);
    }

    #[test]
    fn strided_scan_compresses_to_a_run() {
        let mut c = TraceCompiler::new(1);
        for i in 0..10_000u64 {
            c.push_block(i * 3);
        }
        let program = c.finish();
        // First access is delta 0, the rest fold into one RUN op.
        assert!(
            program.byte_len() <= 16,
            "scan should be a handful of bytes, got {}",
            program.byte_len()
        );
        let decoded = decode(&program);
        assert_eq!(decoded.len(), 10_000);
        assert_eq!(decoded[0], TraceEvent::Access(0));
        assert_eq!(decoded[9_999], TraceEvent::Access(9_999 * 3));
    }

    #[test]
    fn repeated_pattern_folds_into_a_loop() {
        let pattern = [7u64, 900, 7, 13, 13, 42];
        let mut events = Vec::new();
        for _ in 0..500 {
            for &b in &pattern {
                events.push(TraceEvent::Access(b));
            }
            events.push(TraceEvent::Leaf);
        }
        let mut c = TraceCompiler::new(1);
        for &e in &events {
            c.push_event(e);
        }
        let program = c.finish();
        assert_eq!(decode(&program), events);
        assert!(
            program.byte_len() < 100,
            "periodic stream must fold into a LOOP, got {} bytes",
            program.byte_len()
        );
    }

    #[test]
    fn internal_fold_matches_external_iteration_at_every_split() {
        // A stream whose program exercises every opcode: runs (strided
        // scan), a loop (periodic block), lone accesses, and leaves.
        let mut events = Vec::new();
        for i in 0..40u64 {
            events.push(TraceEvent::Access(i * 8));
        }
        for _ in 0..30 {
            for b in [3u64, 999, 3, 17] {
                events.push(TraceEvent::Access(b));
            }
            events.push(TraceEvent::Leaf);
        }
        events.push(TraceEvent::Access(u64::MAX));
        events.push(TraceEvent::Leaf);
        let mut c = TraceCompiler::new(1);
        for &e in &events {
            c.push_event(e);
        }
        let program = c.finish();
        assert_eq!(decode(&program), events);
        // fold() must resume correctly from any iterator state next() can
        // leave behind: mid-run, mid-loop-body, between loop reps, done.
        for split in 0..=events.len() {
            let mut iter = program.events();
            for _ in 0..split {
                iter.next();
            }
            let folded = iter.fold(Vec::new(), |mut v, e| {
                v.push(e);
                v
            });
            assert_eq!(folded, events[split..], "split at {split}");
        }
    }

    #[test]
    fn aperiodic_stream_still_round_trips() {
        // Weyl-style sequence: no short period, exercises spill paths.
        let mut events = Vec::new();
        let mut x = 0u64;
        for i in 0..5_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            events.push(TraceEvent::Access(x >> 32));
            if i % 37 == 0 {
                events.push(TraceEvent::Leaf);
            }
        }
        let mut c = TraceCompiler::new(1);
        for &e in &events {
            c.push_event(e);
        }
        let program = c.finish();
        assert_eq!(decode(&program), events);
    }

    #[test]
    fn sink_route_matches_recompilation_of_recorded_trace() {
        // Drive a Tracer and a TraceCompiler with the same accesses; the
        // compiled-from-trace program must equal the structurally-emitted
        // one byte for byte.
        let addrs = [0u64, 5, 9, 13, 5, 0, 64, 65, 66, 67, 68, 69, 70, 71];
        let mut tracer = Tracer::new(4);
        let mut compiler = TraceCompiler::new(4);
        for rep in 0..30 {
            for &a in &addrs {
                TraceSink::touch(&mut tracer, a + rep);
                TraceSink::touch(&mut compiler, a + rep);
            }
            TraceSink::leaf(&mut tracer);
            TraceSink::leaf(&mut compiler);
        }
        let trace = tracer.into_trace();
        let direct = compiler.finish();
        let recompiled = compile(&trace);
        assert_eq!(direct, recompiled);
        assert_eq!(decode(&direct), trace.events());
        assert_eq!(direct.accesses(), trace.accesses());
        assert_eq!(direct.distinct_blocks(), trace.distinct_blocks());
        assert_eq!(direct.leaves(), trace.leaves());
    }

    #[test]
    fn size_hint_is_exact_throughout() {
        let mut c = TraceCompiler::new(1);
        for i in 0..100u64 {
            c.push_block(i % 7);
            if i % 10 == 0 {
                c.push_leaf();
            }
        }
        let program = c.finish();
        let mut iter = program.events();
        let mut left = usize::try_from(program.event_count()).unwrap();
        loop {
            assert_eq!(iter.size_hint(), (left, Some(left)));
            if iter.next().is_none() {
                break;
            }
            left -= 1;
        }
        assert_eq!(left, 0);
        assert_eq!(iter.size_hint(), (0, Some(0)));
    }

    #[test]
    fn compilation_is_deterministic() {
        let mut events = Vec::new();
        for i in 0..2_000u64 {
            events.push(TraceEvent::Access((i * i) % 257));
            if i % 5 == 0 {
                events.push(TraceEvent::Leaf);
            }
        }
        let build = || {
            let mut c = TraceCompiler::new(1);
            for &e in &events {
                c.push_event(e);
            }
            c.finish()
        };
        assert_eq!(build(), build());
    }
}
