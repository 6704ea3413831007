//! The good-machine tape: settle the fault-free circuit once, replay
//! it in every other shard.
//!
//! FMOSSIM's concurrent algorithm derives all faulty-circuit work from
//! the good machine's solved vicinities (triggering, old-value
//! preservation, private events). That activity is *fault-independent*:
//! the good circuit's settle is identical no matter which fault shard
//! is being graded. A tape captures it — per pattern, per phase, one
//! [`SettleTape`] of solved groups — so that a replaying
//! [`ConcurrentSim`](crate::ConcurrentSim) re-derives triggered faults
//! and private events from the log instead of re-settling the good
//! circuit: `K` shards pay for one good-machine pass instead of `K`.
//!
//! A fault-parallel run streams it: one shard *leads*, settling the
//! good circuit live and publishing each phase into a [`TapeStream`]
//! before running its own faults on it, and the other shards *follow*,
//! replaying each phase once it is published. A phase is freed once
//! every follower has read it. A whole [`GoodTape`] is recorded when
//! every phase must be kept (the server's tape cache).
//!
//! ```text
//!   leader (live, shard 0)             followers (replay, shards 1..K)
//!   ┌────────────────────────────┐     ┌────────────────────────────────┐
//!   │ ConcurrentSim::run_leading │     │ ConcurrentSim::run_replayed_   │
//!   │   good settle              │     │   from(TapeReader)             │
//!   │   ├─ publish a copy ───────┼──▶  │   read the phase's groups      │
//!   │   │  (TapeStream)          │     │   ├─ trigger shard's faults    │
//!   │   └─ own phase body        │     │   ├─ preserve old values       │
//!   └────────────────────────────┘     │   └─ apply recorded changes    │
//!   GoodTape::record: every phase,     │   settle faulty circuits only  │
//!   kept whole ───────────────────▶    └────────────────────────────────┘
//!                  (run_replayed, GoodTape::reader)
//! ```
//!
//! Replay is **bit-identical** to recompute: the triggered sets,
//! preserved old values, private event seeds and final good state are
//! derived from the tape exactly as the live settle derived them, so
//! detection sets and canonical report order never change.
//!
//! Terminology: a *tape* is a replay log of solver activity; a *trace*
//! ([`fmossim_switch::Trace`]) is a waveform. The serial baseline's
//! good-output log is [`GoodObservations`](crate::GoodObservations).

use crate::pattern::Pattern;
use fmossim_netlist::Network;
use fmossim_switch::{DenseState, Engine, EngineConfig, SettleTape};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The good machine's settles, read one phase at a time in sequence
/// order (pattern by pattern, phase by phase) — what a replaying
/// [`ConcurrentSim`](crate::ConcurrentSim) reads, whether the phases
/// come from a whole [`GoodTape`] ([`GoodTape::reader`]) or from a
/// [`TapeStream`] ([`TapeStream::reader`]).
pub trait PhaseSource {
    /// The next phase's good settle, or `None` when the source ends
    /// before it (a stream whose leader stopped).
    fn next_phase(&mut self) -> Option<&SettleTape>;
}

/// A whole tape's phase tapes ([`GoodTape::reader`]).
impl PhaseSource for std::iter::Flatten<std::slice::Iter<'_, Vec<PhaseTape>>> {
    fn next_phase(&mut self) -> Option<&SettleTape> {
        self.next().map(|p| &p.settle)
    }
}

/// The good machine's recorded activity for one simulation phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseTape {
    /// The solved vicinities of the phase's good settle, in solve
    /// order.
    pub settle: SettleTape,
}

/// The good machine's recorded activity for a pattern sequence,
/// produced by [`GoodTape::record`] and consumed by
/// [`ConcurrentSim::run_replayed`](crate::ConcurrentSim::run_replayed).
///
/// A tape is positional: it must be replayed against the *same*
/// network and the same pattern sequence, by a simulator whose good
/// machine is at reset, where recording started.
#[derive(Clone, Debug, Default)]
pub struct GoodTape {
    /// Node count of the network the tape was recorded on (shape
    /// check).
    num_nodes: usize,
    /// `phases[pattern][phase]`, parallel to the recorded patterns.
    phases: Vec<Vec<PhaseTape>>,
    /// Wall-clock seconds the record pass took.
    record_seconds: f64,
}

impl GoodTape {
    /// Records the good machine from reset (inputs at declared
    /// defaults, storage at `X`, the initial all-storage perturbation
    /// pending — exactly how a fresh simulator starts) through
    /// `patterns`.
    #[must_use]
    pub fn record(net: &Network, patterns: &[Pattern], config: EngineConfig) -> Self {
        let t0 = Instant::now();
        let mut good = DenseState::new(net);
        let mut engine = Engine::with_config(net, config);
        engine.perturb_all_storage(&good);
        let mut phases = Vec::with_capacity(patterns.len());
        for pattern in patterns {
            let mut phase_tapes = Vec::with_capacity(pattern.phases.len());
            for phase in &pattern.phases {
                // `apply_input` skips unchanged inputs by the same
                // `old == v` test the replaying simulator makes, so
                // record and replay agree on the change decisions
                // without a second copy of them here.
                for &(n, v) in &phase.inputs {
                    engine.apply_input(&mut good, n, v);
                }
                let mut settle = SettleTape::default();
                let rep = engine.settle_observed(&mut good, |g| settle.push_group(net, g));
                settle.finish(&rep);
                phase_tapes.push(PhaseTape { settle });
            }
            phases.push(phase_tapes);
        }
        GoodTape {
            num_nodes: net.num_nodes(),
            phases,
            record_seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// Node count of the network the tape was recorded on.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of recorded patterns.
    #[must_use]
    pub fn num_patterns(&self) -> usize {
        self.phases.len()
    }

    /// The recorded phase tapes of pattern `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn pattern(&self, p: usize) -> &[PhaseTape] {
        &self.phases[p]
    }

    /// Total solved good-machine vicinities across the whole tape.
    #[must_use]
    pub fn num_groups(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .map(|ph| ph.settle.num_groups())
            .sum()
    }

    /// Every recorded phase, in sequence order.
    pub fn reader(&self) -> impl PhaseSource + '_ {
        self.phases.iter().flatten()
    }

    /// Wall-clock seconds of the record pass.
    #[must_use]
    pub fn record_seconds(&self) -> f64 {
        self.record_seconds
    }

    /// Approximate heap footprint in bytes.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.phases
            .iter()
            .flatten()
            .map(|ph| ph.settle.heap_bytes())
            .sum()
    }

    /// True iff the tape's shape matches `patterns` on a network with
    /// `num_nodes` nodes — the precondition of replay.
    #[must_use]
    pub fn matches(&self, num_nodes: usize, patterns: &[Pattern]) -> bool {
        self.num_nodes == num_nodes
            && self.phases.len() == patterns.len()
            && self
                .phases
                .iter()
                .zip(patterns)
                .all(|(ph, p)| ph.len() == p.phases.len())
    }
}

/// A good tape streamed phase by phase from one live simulator, the
/// *leader* ([`TapeStream::lead`]), to a fixed number of *followers*
/// that replay it behind the leader ([`TapeStream::reader`]).
///
/// Each follower has its own channel. The leader sends every follower
/// a shared copy of each phase and never waits, so no schedule of the
/// followers can stall it. A phase is freed when the last follower
/// holding it moves on to the next phase (or leaves), so the stream
/// holds the phases between the slowest follower and the leader, not
/// the whole sequence. A follower that starts late (more shards than
/// workers, or one worker running the shards in line) reads the phases
/// queued for it. A follower that catches up waits for the next
/// phase, and reads `None` once the leader has stopped (finished, or
/// dropped by a panic) before sending the phase it needs.
///
/// ```text
///   leader (live)                     followers (replay)
///   good settle ──copy──▶ channel 1 [ phases i..j ] ──▶ reader 1
///        │          └───▶ channel 2 [ phases k..j ] ──▶ reader 2
///        ▼
///   own phase body        a phase is freed once every reader is past it
/// ```
#[derive(Debug)]
pub struct TapeStream {
    /// The sending ends, until the leader takes them.
    senders: Mutex<Option<Vec<Sender<Arc<HeldPhase>>>>>,
    /// The receiving ends not yet handed to a follower.
    receivers: Mutex<Vec<Receiver<Arc<HeldPhase>>>>,
    meter: Arc<Meter>,
}

/// Measurements of a [`TapeStream`] (see [`TapeStream::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamStats {
    /// Good-machine vicinities the leader published.
    pub groups: usize,
    /// The most bytes of published phases the stream held at once. The
    /// copies are exact-size, so this is the heap they occupied.
    pub peak_bytes: usize,
    /// Seconds followers spent blocked waiting for the leader, summed
    /// over followers.
    pub wait_seconds: f64,
}

/// The stream's counters, shared with every phase it holds.
#[derive(Debug, Default)]
struct Meter {
    groups: AtomicUsize,
    held_bytes: AtomicUsize,
    peak_bytes: AtomicUsize,
    wait_nanos: AtomicU64,
}

/// One published phase: its bytes leave the held count when the last
/// follower drops it.
#[derive(Debug)]
struct HeldPhase {
    settle: SettleTape,
    bytes: usize,
    meter: Arc<Meter>,
}

impl Drop for HeldPhase {
    fn drop(&mut self) {
        self.meter
            .held_bytes
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// The guarded value of a lock: handing out channel ends leaves it
/// consistent even if the holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TapeStream {
    /// An empty stream for one leader and `followers` readers.
    #[must_use]
    pub fn new(followers: usize) -> Self {
        let (senders, receivers) = (0..followers).map(|_| mpsc::channel()).unzip();
        TapeStream {
            senders: Mutex::new(Some(senders)),
            receivers: Mutex::new(receivers),
            meter: Arc::default(),
        }
    }

    /// The leader's handle. Dropping it ends the stream: followers
    /// waiting for a phase it never published read `None`.
    ///
    /// # Panics
    ///
    /// Panics if the stream already has a leader.
    #[must_use]
    pub fn lead(&self) -> TapeLeader {
        TapeLeader {
            senders: lock(&self.senders).take().expect("one leader per stream"),
            meter: Arc::clone(&self.meter),
        }
    }

    /// One follower's reader, starting at the first phase. Dropping it
    /// (finished, skipped or unwinding) frees every phase it has not
    /// read yet.
    ///
    /// # Panics
    ///
    /// Panics if every follower the stream was made for already has a
    /// reader.
    #[must_use]
    pub fn reader(&self) -> TapeReader {
        TapeReader {
            phases: lock(&self.receivers)
                .pop()
                .expect("more readers than followers"),
            current: None,
            meter: Arc::clone(&self.meter),
        }
    }

    /// The stream's measurements so far.
    #[must_use]
    pub fn stats(&self) -> StreamStats {
        let m = &self.meter;
        StreamStats {
            groups: m.groups.load(Ordering::Relaxed),
            peak_bytes: m.peak_bytes.load(Ordering::Relaxed),
            wait_seconds: m.wait_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// The leading simulator's side of a [`TapeStream`].
#[derive(Debug)]
pub struct TapeLeader {
    senders: Vec<Sender<Arc<HeldPhase>>>,
    meter: Arc<Meter>,
}

impl TapeLeader {
    /// Sends every follower a shared copy of the next phase's good
    /// settle. Never waits for a follower.
    pub fn publish(&self, settle: &SettleTape) {
        let m = &self.meter;
        m.groups.fetch_add(settle.num_groups(), Ordering::Relaxed);
        let bytes = settle.heap_bytes();
        let held = m.held_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        m.peak_bytes.fetch_max(held, Ordering::Relaxed);
        let phase = Arc::new(HeldPhase {
            settle: settle.clone(),
            bytes,
            meter: Arc::clone(m),
        });
        for tx in &self.senders {
            // A follower that left has dropped its receiver: nothing
            // waits for the phase there.
            let _ = tx.send(Arc::clone(&phase));
        }
    }
}

/// A follower's side of a [`TapeStream`]: reads every phase in order,
/// waiting for the leader when it is ahead.
#[derive(Debug)]
pub struct TapeReader {
    phases: Receiver<Arc<HeldPhase>>,
    /// The phase last read, held until the next read.
    current: Option<Arc<HeldPhase>>,
    meter: Arc<Meter>,
}

impl PhaseSource for TapeReader {
    fn next_phase(&mut self) -> Option<&SettleTape> {
        self.current = None;
        self.current = match self.phases.try_recv() {
            Ok(phase) => Some(phase),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                let t0 = Instant::now();
                let phase = self.phases.recv().ok();
                let waited = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.meter.wait_nanos.fetch_add(waited, Ordering::Relaxed);
                phase
            }
        };
        self.current.as_deref().map(|p| &p.settle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Phase;
    use fmossim_netlist::{Drive, Logic, NodeId, Size, TransistorType};

    fn inverter() -> (Network, NodeId, NodeId) {
        let mut net = Network::new();
        let vdd = net.add_input("Vdd", Logic::H);
        let gnd = net.add_input("Gnd", Logic::L);
        let a = net.add_input("A", Logic::L);
        let out = net.add_storage("OUT", Size::S1);
        net.add_transistor(TransistorType::P, Drive::D2, a, vdd, out);
        net.add_transistor(TransistorType::N, Drive::D2, a, out, gnd);
        (net, a, out)
    }

    #[test]
    fn tape_shape_matches_patterns() {
        let (net, a, out) = inverter();
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
            Pattern::new(vec![
                Phase::apply(vec![(a, Logic::H)]),
                Phase::strobe(vec![(a, Logic::L)]),
            ]),
        ];
        let tape = GoodTape::record(&net, &patterns, EngineConfig::default());
        assert_eq!(tape.num_patterns(), 2);
        assert_eq!(tape.pattern(0).len(), 1);
        assert_eq!(tape.pattern(1).len(), 2);
        assert!(tape.matches(net.num_nodes(), &patterns));
        assert!(!tape.matches(net.num_nodes() + 1, &patterns));
        assert!(!tape.matches(net.num_nodes(), &patterns[..1]));
        assert!(tape.num_groups() > 0, "initial settle solves OUT");
        assert!(tape.record_seconds() >= 0.0);
        assert!(tape.heap_bytes() > 0);
        let _ = out;
    }

    #[test]
    fn recorded_changes_track_good_values() {
        let (net, a, out) = inverter();
        let patterns = vec![
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::L)])]),
            Pattern::new(vec![Phase::strobe(vec![(a, Logic::H)])]),
        ];
        let tape = GoodTape::record(&net, &patterns, EngineConfig::default());
        // Pattern 0: OUT settles X -> H. Pattern 1: OUT flips H -> L.
        let all: Vec<(NodeId, Logic, Logic)> = (0..tape.num_patterns())
            .flat_map(|p| tape.pattern(p))
            .flat_map(|ph| {
                ph.settle
                    .groups()
                    .flat_map(|g| g.changed.to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        assert_eq!(
            all,
            vec![(out, Logic::X, Logic::H), (out, Logic::H, Logic::L)]
        );
    }

    /// A tape of `n` patterns toggling the inverter's input, so every
    /// phase records a group.
    fn toggling_tape(n: usize) -> GoodTape {
        let (net, a, _) = inverter();
        let patterns: Vec<Pattern> = (0..n)
            .map(|i| {
                let v = if i % 2 == 0 { Logic::L } else { Logic::H };
                Pattern::new(vec![Phase::strobe(vec![(a, v)])])
            })
            .collect();
        GoodTape::record(&net, &patterns, EngineConfig::default())
    }

    fn publish_all(stream: &TapeStream, tape: &GoodTape) {
        let leader = stream.lead();
        let mut phases = tape.reader();
        while let Some(settle) = phases.next_phase() {
            leader.publish(settle);
        }
    }

    fn read_all(reader: &mut impl PhaseSource) -> Vec<SettleTape> {
        let mut out = Vec::new();
        while let Some(settle) = reader.next_phase() {
            out.push(settle.clone());
        }
        out
    }

    fn held_bytes(stream: &TapeStream) -> usize {
        stream.meter.held_bytes.load(Ordering::Relaxed)
    }

    #[test]
    fn late_followers_read_every_retained_phase() {
        let tape = toggling_tape(6);
        let whole: Vec<SettleTape> = read_all(&mut tape.reader());
        let stream = TapeStream::new(2);
        publish_all(&stream, &tape);
        assert_eq!(stream.stats().peak_bytes, tape.heap_bytes(), "all held");
        assert_eq!(stream.stats().groups, tape.num_groups());
        let (mut first, mut second) = (stream.reader(), stream.reader());
        assert_eq!(read_all(&mut first), whole);
        drop(first);
        assert_eq!(held_bytes(&stream), tape.heap_bytes(), "the second's");
        assert_eq!(read_all(&mut second), whole);
        assert_eq!(held_bytes(&stream), 0, "every phase freed");
        assert_eq!(stream.stats().wait_seconds, 0.0, "nothing was waited for");
    }

    #[test]
    fn a_follower_that_leaves_releases_its_share() {
        let tape = toggling_tape(4);
        let stream = TapeStream::new(2);
        publish_all(&stream, &tape);
        let mut reader = stream.reader();
        assert!(reader.next_phase().is_some());
        drop(reader);
        assert_eq!(held_bytes(&stream), tape.heap_bytes(), "held for the other");
        drop(stream.reader());
        assert_eq!(held_bytes(&stream), 0);
    }

    #[test]
    fn lockstep_publishing_holds_at_most_two_phases() {
        let tape = toggling_tape(8);
        let stream = TapeStream::new(1);
        let leader = stream.lead();
        let mut reader = stream.reader();
        let mut phases = tape.reader();
        let mut max_phase = 0;
        while let Some(settle) = phases.next_phase() {
            max_phase = max_phase.max(settle.heap_bytes());
            leader.publish(settle);
            assert_eq!(reader.next_phase(), Some(settle));
        }
        drop(leader);
        assert_eq!(reader.next_phase(), None, "the leader is done");
        // The reader still holds the last phase when the next one is
        // published, so at most two phases are ever held.
        assert!(stream.stats().peak_bytes <= 2 * max_phase);
        assert_eq!(held_bytes(&stream), 0);
    }

    #[test]
    fn followers_of_a_stopped_leader_read_none() {
        let tape = toggling_tape(4);
        let stream = TapeStream::new(1);
        let leader = stream.lead();
        let mut phases = tape.reader();
        leader.publish(phases.next_phase().expect("a phase"));
        let (read_first, first_read) = mpsc::channel();
        let stream = &stream;
        std::thread::scope(|scope| {
            let follower = scope.spawn(move || {
                let mut reader = stream.reader();
                let first = reader.next_phase().is_some();
                read_first.send(()).expect("the test waits for it");
                (first, reader.next_phase().is_none())
            });
            // The follower blocks on the second phase until the leader
            // is dropped (as unwinding would drop it). Whether it is
            // already blocked only decides whether it waits; either
            // way it reads `None`.
            first_read.recv().expect("the follower read a phase");
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(leader);
            assert_eq!(follower.join().expect("no panic"), (true, true));
        });
        assert!(stream.stats().wait_seconds > 0.0);
    }

    #[test]
    fn concurrent_followers_see_the_leader_order() {
        let tape = toggling_tape(64);
        let whole: Vec<SettleTape> = read_all(&mut tape.reader());
        let stream = TapeStream::new(3);
        std::thread::scope(|scope| {
            let followers: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| read_all(&mut stream.reader())))
                .collect();
            publish_all(&stream, &tape);
            for f in followers {
                assert_eq!(f.join().expect("no panic"), whole);
            }
        });
        assert_eq!(held_bytes(&stream), 0);
        assert!(stream.stats().peak_bytes <= tape.heap_bytes());
    }

    #[test]
    #[should_panic(expected = "more readers than followers")]
    fn readers_are_capped_at_the_follower_count() {
        let stream = TapeStream::new(1);
        let _one = stream.reader();
        let _two = stream.reader();
    }

    #[test]
    #[should_panic(expected = "one leader per stream")]
    fn a_stream_has_one_leader() {
        let stream = TapeStream::new(1);
        drop(stream.lead());
        let _again = stream.lead();
    }
}
