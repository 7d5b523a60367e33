//! The cluster request router: per-model replica selection, admission
//! control and the pluggable dispatch policies.
//!
//! The router sees the candidate replicas of a model at each arrival and
//! picks one (or rejects the request). The serving simulator
//! ([`crate::serving`]) owns the queues and clocks; production code would
//! back the same interface with live load reports.
//!
//! # Candidates and load trees
//!
//! At fleet scale the expensive part of routing is not the policy but
//! *finding the candidate*. The [`ReplicaIndex`] keeps, per model, the
//! routable slots, the per-node replica counts behind the locality signal,
//! and a **load tree**: a tournament (min-segment) tree over the candidates,
//! keyed by the exact total order the policy minimizes — `(outstanding,
//! slot)` for least-loaded and earliest-deadline dispatch,
//! `(Reverse(node_replicas), outstanding, slot)` for locality-affine
//! dispatch. Every tree node is one `u128`, the least packed key below it.
//! From the top bit down, a key holds 1 bit set when the candidate is
//! unavailable ("dark"), 31 bits of (2³¹ − 1) − `node_replicas` (0 unless
//! locality-affine), 64 bits of outstanding work and 32 bits of slot.
//! A full candidate keys as `u128::MAX`, so the root is the least candidate
//! with queue room, and every available one sorts ahead of every dark one.
//! A pick dispatches to the root's slot unless the root is `u128::MAX`, or
//! is dark while the model has an available candidate (full ones count);
//! then it rejects for overload. That is decision-for-decision what
//! [`Router::dispatch`] computes by scanning [`ReplicaView`]s. Round-robin
//! keeps its cursor scan, over the same indexed per-slot loads. The layout
//! bounds two values, checked where they grow: every slot stays below
//! 2³² − 1, and a model's routable replicas on one node below 2³¹.
//!
//! The trees are exactly as fresh as the loads reported to them. The owner
//! keeps this contract:
//!
//! * [`touch`](ReplicaIndex::touch) a slot after every edge that may change
//!   its outstanding work, queue fullness or availability: a dispatch, a
//!   completion, a resume, a batch timeout, a copy round, a fault, a
//!   failover re-dispatch, a control action, a migration;
//! * [`refresh`](ReplicaIndex::refresh) the index with the current load of
//!   the touched slots before every pick, which re-keys each touched leaf in
//!   O(log n);
//! * membership edges ([`insert`](ReplicaIndex::insert),
//!   [`begin_drain`](ReplicaIndex::begin_drain),
//!   [`relocate`](ReplicaIndex::relocate), [`evict`](ReplicaIndex::evict))
//!   need no touch: they rebuild the model's tree at the next refresh, which
//!   also moves the locality key of every candidate on the affected nodes.
//!
//! Availability depends on time only through a replica's dark window, and
//! the serving loop schedules a resume event at the instant each dark window
//! ends, so touching at events keeps every leaf exact.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use workloads::ModelId;

use crate::cluster::VnpuHandle;
use crate::NodeId;

/// The dispatch-relevant load of one replica, as its owner last reported it
/// to the [`ReplicaIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLoad {
    /// Requests queued plus the requests of the batch in service.
    pub outstanding: usize,
    /// Whether the queue is at the admission limit.
    pub full: bool,
    /// Whether the replica may take new work now: not dark, not
    /// mid-migration.
    pub available: bool,
}

impl SlotLoad {
    /// A freshly deployed replica, until its owner reports otherwise.
    const IDLE: SlotLoad = SlotLoad {
        outstanding: 0,
        full: false,
        available: true,
    };
}

/// Exclusive bounds of a slot and of one model's routable replicas on a
/// node: the packed key holds 32 and 31 bits of them, and leaves slot
/// `u32::MAX` to [`LoadKey::NONE`]. Outstanding work takes 64 bits.
const SLOT_LIMIT: usize = u32::MAX as usize;
const NODE_REPLICAS_LIMIT: usize = 1 << 31;
const _: () = assert!(usize::BITS <= 64);

/// The total order a least-key pick minimizes, packed into one `u128` as
/// the [module docs](self) lay out: availability, then the locality signal
/// (more replicas of the model on the node wins), then outstanding work,
/// then the slot, which is unique, so no two keys tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct LoadKey(u128);

impl LoadKey {
    /// The key of a full candidate, greater than every real key: the
    /// minimum of an empty set.
    const NONE: LoadKey = LoadKey(u128::MAX);
    const DARK: u128 = 1 << 127;

    fn is_dark(self) -> bool {
        self.0 & LoadKey::DARK != 0
    }

    fn slot(self) -> usize {
        self.0 as u32 as usize
    }
}

/// A tournament tree over one model's candidates: `nodes[1]` is the root
/// and leaf `i` sits at `nodes[width + i]`, where `width` is the candidate
/// count rounded up to a power of two. Every node holds the least key of its
/// leaves; vacant leaves hold [`LoadKey::NONE`].
#[derive(Debug, Default)]
struct LoadTree {
    nodes: Vec<LoadKey>,
}

impl LoadTree {
    /// Rebuilds the tree over `leaves` in O(width).
    fn rebuild(&mut self, leaves: impl ExactSizeIterator<Item = LoadKey>) {
        let width = leaves.len().next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(2 * width, LoadKey::NONE);
        for (position, leaf) in leaves.enumerate() {
            self.nodes[width + position] = leaf;
        }
        for node in (1..width).rev() {
            self.nodes[node] = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
        }
    }

    /// Re-keys one leaf in O(log width), stopping at the first ancestor
    /// whose minimum does not change.
    fn set(&mut self, position: usize, leaf: LoadKey) {
        let mut node = self.nodes.len() / 2 + position;
        self.nodes[node] = leaf;
        while node > 1 {
            node /= 2;
            let least = self.nodes[2 * node].min(self.nodes[2 * node + 1]);
            if self.nodes[node] == least {
                break;
            }
            self.nodes[node] = least;
        }
    }

    fn root(&self) -> LoadKey {
        self.nodes.get(1).copied().unwrap_or(LoadKey::NONE)
    }
}

/// The routing state of one model.
#[derive(Debug, Default)]
struct ModelIndex {
    /// Routable slots, ascending; leaf `i` of the tree is `candidates[i]`.
    candidates: Vec<usize>,
    /// Routable replicas per node, indexed by `NodeId` (the locality
    /// signal).
    node_counts: Vec<usize>,
    tree: LoadTree,
    /// Candidates that are available, full ones included.
    available: usize,
    /// Membership changed since the tree was last built.
    stale: bool,
}

/// The index's record of one slot.
#[derive(Debug, Clone, Copy)]
struct SlotEntry {
    model: ModelId,
    node: NodeId,
    load: SlotLoad,
    /// The slot's leaf in its model's tree; `None` once it stops being
    /// routable (it never becomes routable again).
    leaf: Option<usize>,
}

/// An incrementally-maintained routing index over the serving simulator's
/// replica table.
///
/// Tracks what the dispatch hot path needs without scanning the table:
///
/// * the **routable** slots of every model — live, non-draining replicas, in
///   ascending slot order (the order a full-table scan visits them);
/// * the **per-(model, node) replica counts** behind the locality signal
///   ([`ReplicaView::node_replicas`]);
/// * the **per-model load trees** the non-round-robin policies pick from
///   (see the [module docs](self) for their invalidation contract);
/// * the **handle → slot map** over every live replica (draining included)
///   that resolves migration and control-plane handles.
///
/// Every map is a dense `Vec`: models by discriminant, nodes by id, slots by
/// table row, and vNPUs by their node-local id, which each board's manager
/// allocates densely.
///
/// The owner calls the transition methods exactly once per lifecycle edge:
/// [`insert`](ReplicaIndex::insert) on deploy, [`begin_drain`](ReplicaIndex::begin_drain)
/// when a replica stops being routable, [`relocate`](ReplicaIndex::relocate)
/// when a migration re-keys its handle, and [`retire`](ReplicaIndex::retire)
/// when the slot dies.
#[derive(Debug)]
pub struct ReplicaIndex {
    /// Whether keys lead with the locality signal.
    locality: bool,
    /// Per-model state, indexed by `ModelId as usize`.
    models: Vec<ModelIndex>,
    /// Per-slot state, indexed by slot.
    slots: Vec<SlotEntry>,
    /// Slots touched since the last refresh.
    touched: Vec<usize>,
    /// Models whose trees the next refresh rebuilds.
    stale: Vec<usize>,
    /// Slot of every live replica, by node id then node-local vNPU id.
    by_handle: Vec<Vec<Option<usize>>>,
}

impl ReplicaIndex {
    /// An empty index whose load trees are keyed for `policy`.
    pub fn new(policy: DispatchPolicy) -> Self {
        ReplicaIndex {
            locality: policy == DispatchPolicy::LocalityAffine,
            models: Vec::new(),
            slots: Vec::new(),
            touched: Vec::new(),
            stale: Vec::new(),
            by_handle: Vec::new(),
        }
    }

    /// Registers a newly deployed, routable replica. Slots must be inserted
    /// in increasing order (the serving simulator's replica table only ever
    /// grows), which keeps every candidate list sorted without searching.
    /// The new slot starts touched: the next refresh reads its real load.
    ///
    /// # Panics
    ///
    /// If `slot` is 2³² − 1 or more, or if `model` would reach 2³¹
    /// routable replicas on `node`: the packed load keys hold neither.
    pub fn insert(&mut self, slot: usize, model: ModelId, node: NodeId, handle: VnpuHandle) {
        assert!(slot < SLOT_LIMIT, "slot {slot} overflows the load key");
        let entry = SlotEntry {
            model,
            node,
            load: SlotLoad::IDLE,
            leaf: None,
        };
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, entry);
        }
        let index = self.model_mut(model);
        debug_assert!(
            index.candidates.last().is_none_or(|last| *last < slot),
            "slots are inserted in increasing order"
        );
        index.candidates.push(slot);
        let leaf = index.candidates.len() - 1;
        take_node_count(&mut index.node_counts, node);
        self.mark_stale(model);
        self.slots[slot] = SlotEntry {
            leaf: Some(leaf),
            ..entry
        };
        self.touch(slot);
        let previous = handle_mut(&mut self.by_handle, handle).replace(slot);
        debug_assert!(previous.is_none(), "handles are unique among live replicas");
    }

    /// Removes a replica from the routable sets when it starts draining (it
    /// stays resolvable by handle until retired).
    pub fn begin_drain(&mut self, slot: usize, model: ModelId, node: NodeId) {
        if let Some(index) = self.models.get_mut(model as usize) {
            if let Ok(position) = index.candidates.binary_search(&slot) {
                index.candidates.remove(position);
            }
        }
        if let Some(entry) = self.slots.get_mut(slot) {
            entry.leaf = None;
        }
        self.release_node_count(model, node);
        self.mark_stale(model);
    }

    /// Re-keys a replica whose migration moved it to a new node. Routable
    /// replicas move their locality count with them; a draining replica was
    /// already out of the routable sets and only re-keys its handle.
    ///
    /// # Panics
    ///
    /// If a routable replica would bring `model` to 2³¹ routable replicas
    /// on the new node: the packed load keys cannot hold that count.
    pub fn relocate(
        &mut self,
        old_handle: VnpuHandle,
        new_handle: VnpuHandle,
        slot: usize,
        model: ModelId,
        routable: bool,
    ) {
        let removed = handle_mut(&mut self.by_handle, old_handle).take();
        debug_assert_eq!(removed, Some(slot), "relocate must name a live replica");
        *handle_mut(&mut self.by_handle, new_handle) = Some(slot);
        if let Some(entry) = self.slots.get_mut(slot) {
            entry.node = new_handle.node;
        }
        if routable {
            self.release_node_count(model, old_handle.node);
            take_node_count(&mut self.model_mut(model).node_counts, new_handle.node);
            if self.locality {
                self.mark_stale(model);
            }
        }
    }

    /// Forgets a retired replica's handle. The slot itself stays dead in the
    /// owner's table; it was removed from the routable sets when it drained.
    pub fn retire(&mut self, handle: VnpuHandle) {
        if let Some(slot) = self
            .by_handle
            .get_mut(handle.node.0 as usize)
            .and_then(|slots| slots.get_mut(handle.vnpu.0 as usize))
        {
            *slot = None;
        }
    }

    /// Removes a replica that died mid-run (board crash / failover fencing)
    /// in one step, without rebuilding the index. Unlike the graceful
    /// drain-then-retire path, eviction hits replicas in *any* state: a
    /// `routable` replica leaves the candidate list and its locality count
    /// immediately; a draining one was already out of the routable sets and
    /// only forgets its handle.
    pub fn evict(
        &mut self,
        slot: usize,
        model: ModelId,
        node: NodeId,
        handle: VnpuHandle,
        routable: bool,
    ) {
        if routable {
            self.begin_drain(slot, model, node);
        }
        self.retire(handle);
    }

    /// The slot of a live replica, draining included; `None` for stale
    /// handles (undeployed, or re-keyed by a migration).
    pub fn slot_of(&self, handle: VnpuHandle) -> Option<usize> {
        self.by_handle
            .get(handle.node.0 as usize)?
            .get(handle.vnpu.0 as usize)
            .copied()
            .flatten()
    }

    /// The routable slots of `model`, in ascending slot order.
    pub fn candidates(&self, model: ModelId) -> &[usize] {
        self.models
            .get(model as usize)
            .map_or(&[], |index| index.candidates.as_slice())
    }

    /// Routable replicas of `model` on `node` (the locality signal).
    pub fn node_count(&self, model: ModelId, node: NodeId) -> usize {
        self.models
            .get(model as usize)
            .and_then(|index| index.node_counts.get(node.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Queues `slot` for the next [`refresh`](ReplicaIndex::refresh): call
    /// after any edge that may change its load. Slots that are no longer
    /// routable are ignored.
    pub fn touch(&mut self, slot: usize) {
        if self
            .slots
            .get(slot)
            .is_some_and(|entry| entry.leaf.is_some())
        {
            self.touched.push(slot);
        }
    }

    /// Brings the load trees up to date: reads the current load of every
    /// touched slot from `load_of` and re-keys its leaf, then rebuilds the
    /// trees whose membership changed. Call before every pick.
    pub fn refresh(&mut self, mut load_of: impl FnMut(usize) -> SlotLoad) {
        let ReplicaIndex {
            locality,
            models,
            slots,
            touched,
            stale,
            ..
        } = self;
        let locality = *locality;
        for slot in touched.drain(..) {
            let entry = &mut slots[slot];
            let Some(position) = entry.leaf else {
                continue;
            };
            let load = load_of(slot);
            if load == entry.load {
                continue;
            }
            let previous = std::mem::replace(&mut entry.load, load);
            // A stale model recounts and rebuilds below.
            let index = &mut models[entry.model as usize];
            if index.stale {
                continue;
            }
            index.available =
                index.available + usize::from(load.available) - usize::from(previous.available);
            let key = load_key(locality, &index.node_counts, slot, entry.node, load);
            index.tree.set(position, key);
        }
        for model in stale.drain(..) {
            let ModelIndex {
                candidates,
                node_counts,
                tree,
                available,
                stale: is_stale,
            } = &mut models[model];
            *is_stale = false;
            *available = 0;
            for (position, &slot) in candidates.iter().enumerate() {
                let entry = &mut slots[slot];
                entry.leaf = Some(position);
                *available += usize::from(entry.load.available);
            }
            tree.rebuild(candidates.iter().map(|&slot| {
                let entry = &slots[slot];
                load_key(locality, node_counts, slot, entry.node, entry.load)
            }));
        }
    }

    /// The candidate of `model` with the least key among those eligible
    /// under the dispatch contract (see the [module docs](self)). Read
    /// after a [`refresh`](ReplicaIndex::refresh).
    fn pick_least(&self, model: ModelId) -> DispatchDecision {
        debug_assert!(
            self.touched.is_empty() && self.stale.is_empty(),
            "the index must be refreshed before a pick"
        );
        let Some(index) = self
            .models
            .get(model as usize)
            .filter(|index| !index.candidates.is_empty())
        else {
            return DispatchDecision::RejectNoReplica;
        };
        let root = index.tree.root();
        if root == LoadKey::NONE || (index.available > 0 && root.is_dark()) {
            DispatchDecision::RejectOverload
        } else {
            DispatchDecision::Dispatch(root.slot())
        }
    }

    /// Available candidates of `model`, full ones included.
    fn available(&self, model: ModelId) -> usize {
        self.models
            .get(model as usize)
            .map_or(0, |index| index.available)
    }

    fn model_mut(&mut self, model: ModelId) -> &mut ModelIndex {
        let position = model as usize;
        if self.models.len() <= position {
            self.models.resize_with(position + 1, ModelIndex::default);
        }
        &mut self.models[position]
    }

    fn mark_stale(&mut self, model: ModelId) {
        let index = self.model_mut(model);
        if !index.stale {
            index.stale = true;
            self.stale.push(model as usize);
        }
    }

    fn release_node_count(&mut self, model: ModelId, node: NodeId) {
        match self
            .models
            .get_mut(model as usize)
            .and_then(|index| index.node_counts.get_mut(node.0 as usize))
        {
            Some(count) if *count > 0 => *count -= 1,
            _ => debug_assert!(false, "released a node count that was never taken"),
        }
    }
}

/// The load-tree key of `slot` on `node` under `load`; the locality signal
/// is constant unless the index serves [`DispatchPolicy::LocalityAffine`].
fn load_key(
    locality: bool,
    node_counts: &[usize],
    slot: usize,
    node: NodeId,
    load: SlotLoad,
) -> LoadKey {
    if load.full {
        return LoadKey::NONE;
    }
    let node_replicas = if locality {
        node_counts.get(node.0 as usize).copied().unwrap_or(0)
    } else {
        0
    };
    let dark = if load.available { 0 } else { LoadKey::DARK };
    let affinity = (NODE_REPLICAS_LIMIT - 1 - node_replicas) as u128;
    LoadKey(dark | affinity << 96 | (load.outstanding as u128) << 32 | slot as u128)
}

/// Counts one more replica on `node` in a per-node vector, growing it on
/// first use.
fn take_node_count(counts: &mut Vec<usize>, node: NodeId) {
    let position = node.0 as usize;
    if counts.len() <= position {
        counts.resize(position + 1, 0);
    }
    counts[position] += 1;
    assert!(
        counts[position] < NODE_REPLICAS_LIMIT,
        "{node} overflows the load key"
    );
}

/// The slot cell of `handle`, growing the per-node vectors on first use.
fn handle_mut(by_handle: &mut Vec<Vec<Option<usize>>>, handle: VnpuHandle) -> &mut Option<usize> {
    let node = handle.node.0 as usize;
    if by_handle.len() <= node {
        by_handle.resize_with(node + 1, Vec::new);
    }
    let slots = &mut by_handle[node];
    let vnpu = handle.vnpu.0 as usize;
    if slots.len() <= vnpu {
        slots.resize(vnpu + 1, None);
    }
    &mut slots[vnpu]
}

/// How the router picks among the replicas of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Cycle through the available replicas regardless of their load.
    RoundRobin,
    /// Send to the replica with the least outstanding work.
    LeastLoaded,
    /// Prefer replicas on nodes hosting the most replicas of the model
    /// (weight locality / warm HBM); ties break towards the least loaded.
    LocalityAffine,
    /// Deadline- and priority-aware serving: replica selection matches
    /// [`DispatchPolicy::LeastLoaded`] (minimize expected wait), but the
    /// serving simulator orders each replica's queue earliest-deadline-first
    /// within priority classes instead of FIFO.
    EarliestDeadline,
}

impl DispatchPolicy {
    /// Every dispatch policy, for sweeps.
    pub fn all() -> [DispatchPolicy; 4] {
        [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastLoaded,
            DispatchPolicy::LocalityAffine,
            DispatchPolicy::EarliestDeadline,
        ]
    }

    /// A short stable label for tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::LocalityAffine => "locality",
            DispatchPolicy::EarliestDeadline => "edf",
        }
    }

    /// Whether replicas serve their queues earliest-deadline-first within
    /// priority classes (instead of FIFO) under this policy.
    pub fn orders_queues_by_deadline(self) -> bool {
        matches!(self, DispatchPolicy::EarliestDeadline)
    }
}

/// Admission control limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionControl {
    /// Maximum requests queued on one replica; arrivals that would exceed it
    /// are rejected (load shedding beats unbounded tail latency).
    pub max_queue_depth: usize,
}

impl Default for AdmissionControl {
    fn default() -> Self {
        AdmissionControl {
            max_queue_depth: 64,
        }
    }
}

/// Router counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests offered by the trace.
    pub offered: usize,
    /// Requests admitted and enqueued on a replica.
    pub admitted: usize,
    /// Requests rejected because no replica serves the model.
    pub rejected_no_replica: usize,
    /// Requests rejected by admission control.
    pub rejected_overload: usize,
    /// Requests that completed service. A [`Router`] never counts these
    /// itself: the serving report fills the field from its latency sketch,
    /// which records every completion once.
    pub completed: usize,
}

impl RouterStats {
    /// Total rejections.
    pub fn rejected(&self) -> usize {
        self.rejected_no_replica + self.rejected_overload
    }
}

/// A snapshot of one candidate replica at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaView {
    /// Index of the replica in the caller's replica table.
    pub index: usize,
    /// The node hosting the replica.
    pub node: NodeId,
    /// Requests queued (excluding those in service).
    pub queue_len: usize,
    /// Requests in the batch currently being served (0 = idle). Scoring by
    /// the batch occupancy — not a busy bit — keeps a replica mid-way
    /// through an 8-request batch from looking as lightly loaded as one
    /// serving a single request.
    pub in_flight: usize,
    /// Whether the replica is mid-migration (draining or transferring).
    pub unavailable: bool,
    /// Replicas of the same model on the replica's node (locality signal).
    pub node_replicas: usize,
}

impl ReplicaView {
    /// Outstanding work on the replica, in requests: queued plus every
    /// request of the in-service batch.
    pub fn outstanding(&self) -> usize {
        self.queue_len + self.in_flight
    }

    /// Whether a batch is currently in service.
    pub fn busy(&self) -> bool {
        self.in_flight > 0
    }
}

/// The outcome of routing one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchDecision {
    /// Enqueue on the replica at this index of the caller's table.
    Dispatch(usize),
    /// No replica serves the model.
    RejectNoReplica,
    /// Admission control rejected the request.
    RejectOverload,
}

/// The request router.
#[derive(Debug)]
pub struct Router {
    policy: DispatchPolicy,
    admission: AdmissionControl,
    rr_cursor: BTreeMap<ModelId, usize>,
    stats: RouterStats,
}

impl Router {
    /// A router with the given policy and admission limits.
    pub fn new(policy: DispatchPolicy, admission: AdmissionControl) -> Self {
        Router {
            policy,
            admission,
            rr_cursor: BTreeMap::new(),
            stats: RouterStats::default(),
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The counters so far.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Routes one request for `model` over the candidate `replicas`
    /// (all replicas of that model, in stable index order).
    ///
    /// Replicas that are mid-migration (`unavailable`) are skipped while any
    /// available replica exists; when *every* replica is dark (e.g. a full
    /// migration window) the request queues behind the migration instead of
    /// being shed. Overload rejection only triggers when every eligible
    /// replica is at `max_queue_depth` — one full queue never sheds a request
    /// another replica has room for.
    ///
    /// This view scan is the reference the indexed path is checked against;
    /// the serving loop routes through
    /// [`dispatch_indexed`](Router::dispatch_indexed).
    pub fn dispatch(&mut self, model: ModelId, replicas: &[ReplicaView]) -> DispatchDecision {
        let (decision, cursor) = self.choose(model, replicas);
        if let Some(cursor) = cursor {
            self.rr_cursor.insert(model, cursor);
        }
        self.count(decision)
    }

    /// Routes one request for `model` over the candidates of `index`: the
    /// decision [`dispatch`](Router::dispatch) makes over views of the same
    /// candidates, read off the model's load tree in O(1) (round-robin: a
    /// cursor scan over the indexed loads). The index must have been
    /// [refreshed](ReplicaIndex::refresh) since its last change.
    pub fn dispatch_indexed(&mut self, model: ModelId, index: &ReplicaIndex) -> DispatchDecision {
        let decision = self.select(model, index);
        self.count(decision)
    }

    /// Routes an *already admitted* request again — failover re-dispatching
    /// the orphans of a dead board. Selection is identical to
    /// [`dispatch_indexed`](Router::dispatch_indexed) but no admission
    /// counters move: the request was offered and admitted exactly once at
    /// arrival, and re-dispatch must keep `offered = admitted + rejected`
    /// intact. A rejection here means no surviving replica can take the
    /// orphan; the caller records it as lost with a fault attribution.
    pub fn redispatch(&mut self, model: ModelId, index: &ReplicaIndex) -> DispatchDecision {
        self.select(model, index)
    }

    /// The decision [`dispatch`](Router::dispatch) would make over
    /// `replicas`, moving neither the round-robin cursor nor a counter.
    pub(crate) fn peek(&self, model: ModelId, replicas: &[ReplicaView]) -> DispatchDecision {
        self.choose(model, replicas).0
    }

    fn count(&mut self, decision: DispatchDecision) -> DispatchDecision {
        self.stats.offered += 1;
        match decision {
            DispatchDecision::Dispatch(_) => self.stats.admitted += 1,
            DispatchDecision::RejectNoReplica => self.stats.rejected_no_replica += 1,
            DispatchDecision::RejectOverload => self.stats.rejected_overload += 1,
        }
        decision
    }

    fn cursor(&self, model: ModelId) -> usize {
        self.rr_cursor.get(&model).copied().unwrap_or(0)
    }

    /// The indexed pick, advancing the round-robin cursor.
    fn select(&mut self, model: ModelId, index: &ReplicaIndex) -> DispatchDecision {
        debug_assert_eq!(
            index.locality,
            self.policy == DispatchPolicy::LocalityAffine,
            "the index must be keyed for the router's policy"
        );
        if self.policy != DispatchPolicy::RoundRobin {
            return index.pick_least(model);
        }
        let candidates = index.candidates(model);
        if candidates.is_empty() {
            return DispatchDecision::RejectNoReplica;
        }
        let any_available = index.available(model) > 0;
        let pick = round_robin(self.cursor(model), candidates.len(), |position| {
            let load = index.slots[candidates[position]].load;
            !load.full && (!any_available || load.available)
        });
        match pick {
            Some(position) => {
                self.rr_cursor
                    .insert(model, (position + 1) % candidates.len());
                DispatchDecision::Dispatch(candidates[position])
            }
            None => DispatchDecision::RejectOverload,
        }
    }

    /// The view-scan pick, with the round-robin cursor it leaves behind.
    fn choose(
        &self,
        model: ModelId,
        replicas: &[ReplicaView],
    ) -> (DispatchDecision, Option<usize>) {
        if replicas.is_empty() {
            return (DispatchDecision::RejectNoReplica, None);
        }

        // Restrict to the available replicas while any exist; a fully dark
        // replica set queues rather than rejects.
        let any_available = replicas.iter().any(|r| !r.unavailable);
        let eligible = |r: &ReplicaView| {
            r.queue_len < self.admission.max_queue_depth && (!any_available || !r.unavailable)
        };

        let pick = match self.policy {
            DispatchPolicy::RoundRobin => {
                let pick = round_robin(self.cursor(model), replicas.len(), |position| {
                    eligible(&replicas[position])
                });
                return match pick {
                    Some(position) => (
                        DispatchDecision::Dispatch(replicas[position].index),
                        Some((position + 1) % replicas.len()),
                    ),
                    None => (DispatchDecision::RejectOverload, None),
                };
            }
            DispatchPolicy::LeastLoaded | DispatchPolicy::EarliestDeadline => replicas
                .iter()
                .filter(|r| eligible(r))
                .min_by_key(|r| (r.outstanding(), r.index)),
            DispatchPolicy::LocalityAffine => replicas
                .iter()
                .filter(|r| eligible(r))
                .min_by_key(|r| (Reverse(r.node_replicas), r.outstanding(), r.index)),
        };
        let decision = match pick {
            Some(replica) => DispatchDecision::Dispatch(replica.index),
            None => DispatchDecision::RejectOverload,
        };
        (decision, None)
    }
}

/// The first position at or after `cursor` (cyclically, over `len`
/// positions) that is `eligible`.
fn round_robin(cursor: usize, len: usize, eligible: impl Fn(usize) -> bool) -> Option<usize> {
    let start = cursor % len;
    (0..len)
        .map(|offset| (start + offset) % len)
        .find(|&position| eligible(position))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(index: usize, node: u32, queue_len: usize, in_flight: usize) -> ReplicaView {
        ReplicaView {
            index,
            node: NodeId(node),
            queue_len,
            in_flight,
            unavailable: false,
            node_replicas: 1,
        }
    }

    #[test]
    fn round_robin_cycles_per_model() {
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let replicas = [view(0, 0, 0, 0), view(1, 1, 0, 0)];
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| router.dispatch(ModelId::Mnist, &replicas))
            .collect();
        assert_eq!(
            picks,
            vec![
                DispatchDecision::Dispatch(0),
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(0),
                DispatchDecision::Dispatch(1),
            ]
        );
        // Independent cursor per model.
        assert_eq!(
            router.dispatch(ModelId::Bert, &replicas),
            DispatchDecision::Dispatch(0)
        );
    }

    #[test]
    fn least_loaded_follows_outstanding_work() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let replicas = [view(0, 0, 3, 1), view(1, 1, 1, 1), view(2, 2, 1, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(2),
            "idle replica with the short queue wins"
        );
    }

    #[test]
    fn least_loaded_counts_batch_occupancy_not_a_busy_bit() {
        // Regression: `busy` used to be a bool, so a replica mid-way through
        // an 8-request batch scored as outstanding = queue + 1 and beat an
        // idle-but-queued replica. Occupancy now weighs the whole batch.
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        // Replica 0: empty queue but an 8-deep batch in service.
        // Replica 1: idle with 2 queued requests.
        let replicas = [view(0, 0, 0, 8), view(1, 1, 2, 0)];
        assert_eq!(
            replicas[0].outstanding(),
            8,
            "the in-service batch is outstanding work"
        );
        assert!(replicas[0].busy() && !replicas[1].busy());
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "a mid-batch replica is not near-idle"
        );
    }

    #[test]
    fn least_loaded_avoids_migrating_replicas() {
        let mut router = Router::new(DispatchPolicy::LeastLoaded, AdmissionControl::default());
        let mut migrating = view(0, 0, 0, 0);
        migrating.unavailable = true;
        let replicas = [migrating, view(1, 1, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1)
        );
    }

    #[test]
    fn locality_prefers_replica_dense_nodes() {
        let mut router = Router::new(DispatchPolicy::LocalityAffine, AdmissionControl::default());
        let mut dense = view(1, 1, 1, 1);
        dense.node_replicas = 3;
        let replicas = [view(0, 0, 0, 0), dense];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "locality outweighs load"
        );
    }

    #[test]
    fn round_robin_skips_migrating_replicas() {
        // Regression: RR used to pick replicas[cursor] blindly, dispatching
        // to mid-migration replicas.
        let mut router = Router::new(DispatchPolicy::RoundRobin, AdmissionControl::default());
        let mut dark = view(0, 0, 0, 0);
        dark.unavailable = true;
        let replicas = [dark, view(1, 1, 0, 0), view(2, 2, 0, 0)];
        let picks: Vec<DispatchDecision> = (0..4)
            .map(|_| router.dispatch(ModelId::Mnist, &replicas))
            .collect();
        assert_eq!(
            picks,
            vec![
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(2),
                DispatchDecision::Dispatch(1),
                DispatchDecision::Dispatch(2),
            ],
            "the dark replica is never picked while others are available"
        );
    }

    #[test]
    fn round_robin_overload_requires_every_available_replica_full() {
        // Regression: RR used to reject outright when the cursor landed on a
        // full replica even though the other replica had queue room.
        let mut router = Router::new(
            DispatchPolicy::RoundRobin,
            AdmissionControl { max_queue_depth: 2 },
        );
        let replicas = [view(0, 0, 2, 1), view(1, 1, 0, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1),
            "the roomy replica absorbs the request"
        );
        let both_full = [view(0, 0, 2, 1), view(1, 1, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &both_full),
            DispatchDecision::RejectOverload
        );
    }

    #[test]
    fn fully_dark_replica_sets_queue_instead_of_rejecting() {
        // When every replica is mid-migration the request waits behind the
        // migration window rather than being shed — on both routing paths.
        let mut a = view(0, 0, 0, 0);
        a.unavailable = true;
        let mut b = view(1, 1, 3, 1);
        b.unavailable = true;
        assert_both_paths(
            AdmissionControl::default(),
            &[a, b],
            |decision| matches!(decision, DispatchDecision::Dispatch(_)),
            "an all-dark window must queue",
        );
    }

    #[test]
    fn edf_routes_like_least_loaded_and_flags_queue_ordering() {
        let mut router = Router::new(
            DispatchPolicy::EarliestDeadline,
            AdmissionControl::default(),
        );
        let replicas = [view(0, 0, 3, 1), view(1, 1, 0, 0)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::Dispatch(1)
        );
        assert!(DispatchPolicy::EarliestDeadline.orders_queues_by_deadline());
        assert!(!DispatchPolicy::LeastLoaded.orders_queues_by_deadline());
    }

    /// An index over `replicas` (all of model Mnist), refreshed with the
    /// loads the views describe under `admission`.
    fn indexed(
        policy: DispatchPolicy,
        admission: AdmissionControl,
        replicas: &[ReplicaView],
    ) -> ReplicaIndex {
        let mut index = ReplicaIndex::new(policy);
        for (vnpu, view) in replicas.iter().enumerate() {
            let handle = VnpuHandle {
                node: view.node,
                vnpu: neu10::VnpuId(vnpu as u32),
            };
            index.insert(view.index, ModelId::Mnist, view.node, handle);
        }
        index.refresh(|slot| {
            let view = replicas.iter().find(|view| view.index == slot).unwrap();
            SlotLoad {
                outstanding: view.outstanding(),
                full: view.queue_len >= admission.max_queue_depth,
                available: !view.unavailable,
            }
        });
        index
    }

    /// Routes `replicas` through both paths under every policy and checks
    /// each gives `expected`.
    fn assert_both_paths(
        admission: AdmissionControl,
        replicas: &[ReplicaView],
        expected: impl Fn(DispatchDecision) -> bool,
        why: &str,
    ) {
        for policy in DispatchPolicy::all() {
            let scanned = Router::new(policy, admission).dispatch(ModelId::Mnist, replicas);
            let index = indexed(policy, admission, replicas);
            let picked = Router::new(policy, admission).dispatch_indexed(ModelId::Mnist, &index);
            assert_eq!(
                scanned,
                picked,
                "{}: the two paths disagree",
                policy.label()
            );
            assert!(
                expected(picked),
                "{}: {why}, got {picked:?}",
                policy.label()
            );
        }
    }

    #[test]
    fn full_available_replica_beside_a_dark_roomy_one_rejects() {
        // The dark replica is not eligible while any replica is available —
        // a full queue still counts as available — so nothing has room.
        let admission = AdmissionControl { max_queue_depth: 2 };
        let full = view(0, 0, 2, 1);
        let mut dark = view(1, 1, 0, 0);
        dark.unavailable = true;
        assert_both_paths(
            admission,
            &[full, dark],
            |decision| decision == DispatchDecision::RejectOverload,
            "a full available replica next to a dark one with room must shed",
        );
    }

    #[test]
    fn packed_keys_keep_the_tuple_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        // Every full candidate ties at the top; the rest order by
        // (dark, Reverse(node_replicas), outstanding, slot).
        let reference = |&(node_replicas, slot, load): &(usize, usize, SlotLoad)| {
            let room = !load.full;
            let key = (
                !load.available,
                Reverse(node_replicas),
                load.outstanding,
                slot,
            );
            (load.full, room.then_some(key))
        };
        let mut rng = StdRng::seed_from_u64(19);
        let mut draw = |low: usize, high: usize| match rng.gen_range(0..8u32) {
            0 => low,
            1 => high,
            _ => rng.gen_range(low..low + 4),
        };
        let mut leaves: Vec<(usize, usize, SlotLoad)> = (0..400)
            .map(|_| {
                let node_replicas = draw(0, NODE_REPLICAS_LIMIT - 1);
                let slot = draw(0, SLOT_LIMIT - 1);
                let load = SlotLoad {
                    outstanding: draw(0, usize::MAX),
                    full: draw(0, 1) == 1,
                    available: draw(0, 1) == 0,
                };
                (node_replicas, slot, load)
            })
            .collect();
        for node_replicas in [0, NODE_REPLICAS_LIMIT - 1] {
            for slot in [0, SLOT_LIMIT - 1] {
                for outstanding in [0, usize::MAX] {
                    for available in [true, false] {
                        let load = SlotLoad {
                            outstanding,
                            full: false,
                            available,
                        };
                        leaves.push((node_replicas, slot, load));
                    }
                }
            }
        }
        let packed = |&(node_replicas, slot, load): &(usize, usize, SlotLoad)| {
            load_key(true, &[node_replicas], slot, NodeId(0), load)
        };
        for a in &leaves {
            let key = packed(a);
            if !a.2.full {
                assert!(key < LoadKey::NONE, "{a:?} must sort below NONE");
                assert_eq!(key.slot(), a.1, "{a:?}: the slot must round-trip");
                assert_eq!(key.is_dark(), !a.2.available, "{a:?}: dark bit");
            }
            for b in &leaves {
                assert_eq!(
                    key.cmp(&packed(b)),
                    reference(a).cmp(&reference(b)),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn redispatch_moves_no_admission_counters() {
        let admission = AdmissionControl::default();
        let mut router = Router::new(DispatchPolicy::LeastLoaded, admission);
        let replicas = [view(0, 0, 1, 0), view(1, 1, 0, 0)];
        let index = indexed(DispatchPolicy::LeastLoaded, admission, &replicas);
        assert_eq!(
            router.redispatch(ModelId::Mnist, &index),
            DispatchDecision::Dispatch(1)
        );
        assert_eq!(
            router.redispatch(ModelId::Bert, &index),
            DispatchDecision::RejectNoReplica
        );
        let stats = router.stats();
        assert_eq!(
            (stats.offered, stats.admitted, stats.rejected()),
            (0, 0, 0),
            "re-dispatching an orphan must not re-count it"
        );
    }

    #[test]
    fn evict_removes_a_routable_slot_mid_run() {
        use neu10::VnpuId;

        let mut index = ReplicaIndex::new(DispatchPolicy::LeastLoaded);
        let handle = |n: u32| VnpuHandle {
            node: NodeId(n),
            vnpu: VnpuId(0),
        };
        index.insert(0, ModelId::Mnist, NodeId(0), handle(0));
        index.insert(1, ModelId::Mnist, NodeId(1), handle(1));
        index.insert(2, ModelId::Mnist, NodeId(1), handle(2));

        // Crash the middle slot: candidate list, locality count and handle
        // all drop in one step, no rebuild.
        index.evict(1, ModelId::Mnist, NodeId(1), handle(1), true);
        assert_eq!(index.candidates(ModelId::Mnist), &[0, 2]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 1);
        assert_eq!(index.slot_of(handle(1)), None);

        // A draining replica is already out of the routable sets; eviction
        // only forgets the handle.
        index.begin_drain(2, ModelId::Mnist, NodeId(1));
        index.evict(2, ModelId::Mnist, NodeId(1), handle(2), false);
        assert_eq!(index.candidates(ModelId::Mnist), &[0]);
        assert_eq!(index.node_count(ModelId::Mnist, NodeId(1)), 0);
        assert_eq!(index.slot_of(handle(2)), None);
        assert_eq!(index.slot_of(handle(0)), Some(0));
    }

    #[test]
    fn admission_control_sheds_load() {
        let mut router = Router::new(
            DispatchPolicy::LeastLoaded,
            AdmissionControl { max_queue_depth: 2 },
        );
        let replicas = [view(0, 0, 2, 1)];
        assert_eq!(
            router.dispatch(ModelId::Mnist, &replicas),
            DispatchDecision::RejectOverload
        );
        assert_eq!(
            router.dispatch(ModelId::Mnist, &[]),
            DispatchDecision::RejectNoReplica
        );
        let stats = router.stats();
        assert_eq!(stats.offered, 2);
        assert_eq!(stats.admitted, 0);
        assert_eq!(stats.rejected(), 2);
    }
}
