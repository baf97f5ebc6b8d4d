//! The mesh walker: every interleaving of a small deployment, checked.
//!
//! The exhaustive scheduler over [`crate::mesh`]: from each state it
//! takes every move the world allows — the head of any non-empty queue,
//! or the head of any server's disk — and feeds each scatter's push
//! inside the move that scattered (a push is only a send, so it adds no
//! interleaving). States repeat (two deliveries to different nodes
//! commute), so a visited set keeps the walk small; it counts the
//! complete orders as it goes, and holds every end state to
//! [`Mesh::check_end`]. The set holds each state's 128-bit
//! fingerprint, not the state: two states that share one would
//! silently prune the second's subtree, so the key is wide enough that
//! among the walk's ~10^5 states a shared one is a ~10^-29 chance.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::mesh::{Collective, Mesh, Move, Note, Program, Shape, World};

/// The walk of one shape.
struct Walk {
    mesh: Mesh,
    notes: Vec<Note>,
    /// The last state's hash stream, its buffer reused.
    stream: Stream,
    /// Complete orders from each state seen, by its fingerprint.
    seen: HashMap<u128, u128>,
}

/// What a value feeds a hasher, kept so it can be hashed twice: taking
/// the stream of a state is most of what hashing it costs.
struct Stream(Vec<u8>);

impl Hasher for Stream {
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("a stream is hashed, not finished")
    }
}

impl Walk {
    /// `w`'s fingerprint: two hashes of its stream, each salted with its
    /// own prefix, side by side.
    fn fingerprint(&mut self, w: &World) -> u128 {
        self.stream.0.clear();
        w.hash(&mut self.stream);
        let half = |salt: u64| {
            let mut hasher = DefaultHasher::new();
            hasher.write_u64(salt);
            hasher.write(&self.stream.0);
            u128::from(hasher.finish())
        };
        (half(0) << 64) | half(1)
    }

    /// Apply `mv`, and push every step it scatters at once.
    fn step(&mut self, w: &mut World, mv: Move) -> Result<(), String> {
        self.notes.clear();
        self.mesh.apply(w, mv, &mut self.notes)?;
        let mut at = 0;
        while let Some(&note) = self.notes.get(at) {
            at += 1;
            if let Note::Scatter { server, .. } = note {
                self.mesh
                    .apply(w, Move::Pushed { server }, &mut self.notes)?;
            }
        }
        Ok(())
    }

    /// Every complete order from `w`, checked; how many there are.
    fn explore(&mut self, w: World) -> Result<u128, String> {
        let key = self.fingerprint(&w);
        if let Some(&orders) = self.seen.get(&key) {
            return Ok(orders);
        }
        let moves = self.mesh.moves(&w);
        let mut orders = 0;
        if moves.is_empty() {
            self.mesh.check_end(&w)?;
            orders = 1;
        }
        for mv in moves {
            let mut next = w.clone();
            let walked = self.step(&mut next, mv).and_then(|()| self.explore(next));
            let walked =
                walked.map_err(|e| format!("{e}\n  after {}", self.mesh.describe(&w, mv)))?;
            orders = walked.saturating_add(orders);
        }
        self.seen.insert(key, orders);
        Ok(orders)
    }
}

/// Walk `shape`; panics with the failing order. Returns the states seen
/// and the complete orders.
fn walk(name: &str, shape: Shape) -> (usize, u128) {
    let mut walk = Walk {
        mesh: Mesh::new(shape),
        notes: Vec::new(),
        stream: Stream(Vec::new()),
        seen: HashMap::new(),
    };
    let mut notes = Vec::new();
    let orders = walk.mesh.start(&mut notes).and_then(|w| walk.explore(w));
    let orders = orders.unwrap_or_else(|e| {
        // The moves were appended innermost first.
        let mut lines: Vec<&str> = e.split("\n  after ").collect();
        lines[1..].reverse();
        panic!("{name}: {}", lines.join("\n  after "))
    });
    (walk.seen.len(), orders)
}

/// A program of `clients`, each server's plan the same function of the
/// server index.
fn program(
    clients: usize,
    servers: usize,
    plan: impl Fn(usize) -> Vec<Vec<usize>>,
    ops: Vec<Collective>,
) -> Program {
    Program {
        clients,
        plan: (0..servers).map(plan).collect(),
        ops,
    }
}

/// The shapes walked: a 2 x 2 fleet writing, reading back and writing
/// again, at depth 1 and 2 with one to three steps per node; one client
/// on three I/O nodes; two sessions on two I/O nodes, one writing and
/// reading back (one step per node at depth 1, two at depth 2), the
/// other a one-shot and a read back, sharing one live slot with no
/// queue or a queue of one; the same two sessions with a live slot each,
/// one only writing, so two runs are live on each server at once; a
/// fleet beside a one-shot session on one live slot, which the fleet
/// must wait for, never be refused.
fn shapes() -> Vec<(String, Shape)> {
    use Collective::*;
    let shape = |servers, depth, (live, queued), programs| Shape {
        servers,
        depth,
        live,
        queued,
        programs,
    };
    let session = |ops| program(1, 2, |_| vec![vec![0]], ops);
    let mut shapes = Vec::new();
    // Every server has a piece for every client in every collective, so
    // the next collective can overtake the end of this one.
    type Plan = fn(usize) -> Vec<Vec<usize>>;
    let fleet_plans: [(&str, Plan); 4] = [
        ("one step", |s| vec![vec![s % 2, 1 - s % 2]]),
        ("two steps", |s| vec![vec![s % 2], vec![1 - s % 2]]),
        ("two steps of two", |s| {
            vec![vec![s % 2, 1 - s % 2], vec![1 - s % 2, s % 2]]
        }),
        ("three steps", |s| {
            vec![vec![s % 2], vec![1 - s % 2], vec![s % 2]]
        }),
    ];
    for depth in 1..=2 {
        // One step per node is the same walk at any depth.
        for (plan_name, plan) in &fleet_plans[depth - 1..] {
            let name = format!("2x2 fleet, write, read, write, {plan_name}, depth {depth}");
            let fleet = program(2, 2, plan, vec![Write, Read, Write]);
            shapes.push((name, shape(2, depth, (4, 16), vec![fleet])));
        }
        let one = program(1, 3, |_| vec![vec![0], vec![0]], vec![Write, Read]);
        let name = format!("1x3, write then read, depth {depth}");
        shapes.push((name, shape(3, depth, (4, 16), vec![one])));
        for queued in 0..=1 {
            let name = format!("two sessions x 2, caps 1/{queued}, depth {depth}");
            // Two steps only where depth can tell them apart.
            let writer = program(1, 2, |_| vec![vec![0]; depth], vec![Write, Read]);
            let sessions = vec![writer, session(vec![OneShot, Read])];
            shapes.push((name, shape(2, depth, (1, queued), sessions)));
        }
    }
    let name = "two sessions x 2, caps 2/0, depth 1".to_string();
    let sessions = vec![session(vec![Write]), session(vec![OneShot, Read])];
    shapes.push((name, shape(2, 1, (2, 0), sessions)));
    let name = "2x2 fleet beside a one-shot session, caps 1/0".to_string();
    let fleet = program(2, 2, |s| vec![vec![s % 2, 1 - s % 2]], vec![Write, Read]);
    shapes.push((
        name,
        shape(2, 1, (1, 0), vec![fleet, session(vec![OneShot])]),
    ));
    shapes
}

/// Each shape's state count, in `shapes()` order: a change to a machine,
/// the mesh or a shape that moves one says so here.
const STATES: [usize; 15] = [
    832, 555, 2165, 839, 1549, 5997, 3861, 1211, 7373, 3294, 2033, 14828, 10012, 2390, 7817,
];

#[test]
fn every_interleaving_of_the_mesh_finishes_every_collective_as_the_oracle_says() {
    let (mut states, mut orders) = (Vec::new(), 0u128);
    for (name, shape) in shapes() {
        let started = std::time::Instant::now();
        let (seen, walked) = walk(&name, shape);
        println!(
            "{name}: {seen} states, {walked} orders, {:.2?}",
            started.elapsed()
        );
        assert!(walked > 1, "{name}: the walk is not branching");
        states.push(seen);
        orders = orders.saturating_add(walked);
    }
    let total: usize = states.iter().sum();
    println!("mesh walk: {total} states, {orders} orders");
    assert_eq!(states, STATES);
}
