//! Reused working memory of one §6 run: the node-bucket index that answers
//! "which active packets sit at this node?" for every stage, and the
//! per-column / per-group / per-step buffers the stages clear between uses.
//! Everything is sized once per problem, so routing allocates O(1)
//! times per problem however many moves it makes.

use super::state::S6State;

/// "No packet": the end of a bucket list, an idle `from_south` slot.
pub const NIL: u32 = u32::MAX;

/// Intrusive per-node packet lists over real node indices: `head[node]` is
/// the first packet at `node`, `next[p]` the one after `p`. List order is
/// arbitrary — every stage picks by a key that is unique within a node.
pub struct Buckets {
    head: Vec<u32>,
    next: Vec<u32>,
}

impl Buckets {
    fn new(nodes: usize, packets: usize) -> Buckets {
        Buckets {
            head: vec![NIL; nodes],
            next: vec![NIL; packets],
        }
    }

    pub fn is_empty(&self, node: usize) -> bool {
        self.head[node] == NIL
    }

    pub fn push(&mut self, node: usize, p: u32) {
        self.next[p as usize] = self.head[node];
        self.head[node] = p;
    }

    /// Unlinks `p`, which must be in `node`'s list.
    pub fn remove(&mut self, node: usize, p: u32) {
        let after = self.next[p as usize];
        if self.head[node] == p {
            self.head[node] = after;
        } else {
            let mut at = self.head[node];
            while self.next[at as usize] != p {
                at = self.next[at as usize];
            }
            self.next[at as usize] = after;
        }
    }

    /// The packets at `node`.
    pub fn iter(&self, node: usize) -> impl Iterator<Item = u32> + '_ {
        let link = |p: u32| (p != NIL).then_some(p);
        std::iter::successors(link(self.head[node]), move |&p| link(self.next[p as usize]))
    }

    /// Files each packet under its current node.
    pub fn fill(&mut self, st: &S6State, pkts: impl IntoIterator<Item = u32>) {
        for p in pkts {
            self.push(st.node_of(p), p);
        }
    }

    /// Empties the lists of the nodes the packets sit at.
    pub fn clear(&mut self, st: &S6State, pkts: impl IntoIterator<Item = u32>) {
        for p in pkts {
            self.head[st.node_of(p)] = NIL;
        }
    }
}

/// A class packet taking part in a phase, keyed for sorting by the origin
/// `(x0, y0)` of the virtual tile that holds it: `(x0, y0, packet)`.
pub type TilePkt = (i64, i64, u32);

/// Every buffer a §6 run needs beyond [`S6State`].
pub struct Scratch {
    pub buckets: Buckets,
    /// The active packets of the current phase, sorted into per-tile runs.
    pub tile_pkts: Vec<TilePkt>,
    /// Sorted group keys: March `(column, packet)`, Sort and Smooth
    /// `(column, destination strip)`.
    pub keys: Vec<(u32, u32)>,
    /// Nodes to visit this step, and the list being built for the next.
    pub work: Vec<(u32, u32)>,
    pub next_work: Vec<(u32, u32)>,
    /// The packets chosen to move this step, in application order.
    pub moves: Vec<u32>,
    // March, per virtual row of the current column.
    pub in_work: Vec<bool>,
    pub stop_cnt: Vec<u32>,
    pub from_south: Vec<(u32, u64)>,
    // Sort and Smooth, per row of strip i−2.
    pub received: Vec<u64>,
    pub passing: Vec<Option<u32>>,
}

impl Scratch {
    /// Scratch for a side-`n` mesh carrying `packets` packets, of which at
    /// most `class` are routed at a time.
    pub fn new(n: usize, packets: usize, class: usize) -> Scratch {
        Scratch {
            buckets: Buckets::new(n * n, packets),
            tile_pkts: Vec::with_capacity(class),
            keys: Vec::with_capacity(class),
            work: Vec::with_capacity(class),
            next_work: Vec::with_capacity(class),
            moves: Vec::with_capacity(class),
            in_work: vec![false; n],
            stop_cnt: vec![0; n],
            from_south: vec![(NIL, 0); n],
            received: vec![0; n / 27],
            passing: vec![None; n / 27],
        }
    }
}
