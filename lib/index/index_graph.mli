(** The index graph: the common representation of every structural
    summary in this library (label-split, A(k), 1-index, D(k)).

    An index graph over a data graph [G] partitions [G]'s nodes into
    extents.  Each index node carries:
    - its (shared) label,
    - its extent (the data nodes it summarizes),
    - its local similarity [k]: the guarantee that all data nodes of
      the extent are at least k-bisimilar (Definition 2),
    - its requirement [req]: the local similarity the current query
      load asks of this label (Section 4.2).

    There is an index edge [A -> B] exactly when some data edge runs
    from a node of [extent A] to a node of [extent B].

    Index nodes can be split in place ({!split}); this is the
    primitive behind D(k) promotion and the A(k) propagate update.
    Splitting retires the old node id and allocates fresh ids, so ids
    are stable for as long as a node is alive.

    Adjacency is stored CSR-style (flat offsets + neighbor arrays per
    direction) with an overflow layer absorbing mutations, folded back
    in amortized batches — the same layout {!Data_graph} uses.  All
    [iter_*]/[exists_*] traversals are allocation-free. *)

open Dkindex_graph

type inode = private {
  id : int;
  label : Label.t;
  mutable extent : int array;  (** sorted increasing; do not mutate *)
  mutable extent_size : int;
  mutable k : int;
  mutable req : int;
}

type t

val k_infinite : int
(** Local similarity of 1-index nodes: sound for any query length. *)

(** {1 Construction} *)

val of_partition :
  ?mode:[ `Auto | `In_ram | `External ] ->
  Data_graph.t ->
  cls:int array ->
  n_classes:int ->
  k_of_class:(int -> int) ->
  req_of_class:(int -> int) ->
  t
(** Build an index graph from a partition of the data nodes given as a
    [cls] map (data node -> class id in [0 .. n_classes-1]).  Index
    node ids coincide with class ids.  @raise Invalid_argument if a
    class is empty or mixes labels.

    [mode] selects how the data edges are projected and deduplicated
    into the index CSR: [`In_ram] keeps the distinct (class, class)
    pairs in a hash table / byte matrix, [`External] streams every
    projected pair through {!Dkindex_graph.Ext_sort} so the working
    set is bounded by the sorter budget rather than the number of
    distinct index edges.  [`Auto] (the default) picks [`External] at
    the same edge-count threshold as {!Kbisim.refine}.  Both paths
    produce bit-identical CSRs. *)

val of_partition_with_edges :
  Data_graph.t ->
  cls:int array ->
  n_classes:int ->
  k_of_class:(int -> int) ->
  req_of_class:(int -> int) ->
  children:(int array * int array) ->
  t
(** {!of_partition}, but installing the given index adjacency
    ([children] = CSR offsets + sorted neighbor runs over class ids;
    parents are derived by counting sort) instead of projecting every
    data edge — O(n + index edges) instead of O(data edges).  The
    loader for index containers, whose stored CSR came from this
    module in the first place.  Only the CSR {i shape} is validated;
    callers vouch for its content. *)

(** {1 Accessors} *)

val data : t -> Data_graph.t
val node : t -> int -> inode
(** @raise Invalid_argument if the id is dead or out of range. *)

val is_alive : t -> int -> bool
val cls : t -> int -> int
(** Index node id of a data node. *)

val root_node : t -> int
(** Index node containing the data root. *)

val n_nodes : t -> int
(** Number of live index nodes (the "index size" of the figures). *)

val max_id : t -> int
(** One past the largest id ever allocated (dead or alive).  Dense
    per-node working arrays should be sized by this. *)

val n_edges : t -> int
(** Number of live index edges, in O(1). *)

val iter_alive : t -> (inode -> unit) -> unit
val fold_alive : t -> init:'a -> f:('a -> inode -> 'a) -> 'a
val nodes_with_label : t -> Label.t -> int list
(** Live index nodes carrying the label.  The per-label bucket is only
    compacted when a node with that label has actually died since the
    last read; otherwise this returns the cached list as-is. *)

val count_with_label : t -> Label.t -> int
(** Number of live index nodes carrying the label, in O(1). *)

val extent_mem : inode -> int -> bool
(** Whether a data node belongs to the extent (binary search). *)

val extent_min : inode -> int
(** Smallest data node id in the extent (its canonical
    representative). *)

val max_k : t -> int
(** Largest finite local similarity among live nodes (0 for an empty
    index). *)

(** {1 Adjacency} *)

val iter_children : t -> int -> (int -> unit) -> unit
(** Apply to every index child of a node.  Allocation-free on the CSR
    portion.  Order is unspecified (CSR run first, then overflow). *)

val iter_parents : t -> int -> (int -> unit) -> unit

val exists_children : t -> int -> (int -> bool) -> bool
(** Short-circuiting existential over the children. *)

val exists_parents : t -> int -> (int -> bool) -> bool

val children_list : t -> int -> int list
(** Children as a sorted, duplicate-free list (allocates). *)

val parents_list : t -> int -> int list

val has_index_edge : t -> int -> int -> bool
(** [has_index_edge t a b] — whether the index edge [a -> b] exists.
    Binary search on the CSR run plus an overflow probe. *)

val out_degree : t -> int -> int
val in_degree : t -> int -> int

val csr_children : t -> int array * int array
(** [(off, arr)] — flat child adjacency: children of [id] are
    [arr.(off.(id)) .. arr.(off.(id+1) - 1)], sorted increasing.
    Flattens any pending overflow first; the arrays remain valid until
    the next mutation. *)

val csr_parents : t -> int array * int array

(** {1 Mutation} *)

val split : t -> int -> int array list -> int list
(** [split t id groups] replaces index node [id] by one node per group;
    [groups] must be a partition of [id]'s extent into non-empty,
    sorted arrays.  New nodes inherit label, [k] and [req]; edges are
    recomputed from the data graph.  Returns the new ids ([ [id] ]
    unchanged if a single group is passed).  @raise Invalid_argument if
    the groups do not partition the extent. *)

val resolve : t -> int -> int list
(** Live index nodes descending from a possibly-retired id (follows
    {!split} forwarding).  The identity on live ids. *)

val add_index_edge : t -> int -> int -> unit
(** Record an index edge (used right after a data edge insertion).
    No-op if present. *)

val remove_index_edge : t -> int -> int -> unit
(** Drop an index edge (used after a data edge deletion left no edge
    between the two extents).  No-op if absent. *)

val set_k : t -> int -> int -> unit
val set_req : t -> int -> int -> unit

(** {1 Cache invalidation} *)

val generation : t -> int
(** Monotone counter bumped by every mutation ({!split},
    {!add_index_edge}, {!remove_index_edge}, {!set_k}, {!set_req},
    {!touch}).  Caches over query results snapshot it and drop their
    contents when it moves ({!Validation_cache}). *)

val touch : t -> unit
(** Explicitly bump {!generation}.  Update drivers call this when they
    change state the index graph cannot see itself (e.g. a data-graph
    edge insertion that maps to an already-present index edge but
    still changes validation answers). *)

val set_tracer : t -> (int -> unit) option -> unit
(** Install (or clear) a structural-change observer.  The callback
    receives the id of every index node whose summary-relevant state
    changes: the retired id on {!split}, both endpoints of
    {!add_index_edge} / {!remove_index_edge}, and the target of
    {!set_k} / {!set_req}.  Ids may be dead by the time the observer
    acts on them — {!resolve} follows the forwarding history.  Purely
    in-memory rebuilds (CSR flattening, bucket compaction) are not
    structural changes and are not reported.  Used by the integrity
    digest tree to mark dirty ranges incrementally. *)

(** {1 Serving} *)

val prepare_serving : t -> unit
(** Make the structure safe for concurrent read-only access from
    multiple domains: flatten the index adjacency into pure CSR form,
    compact every label bucket, and force lazily-built tables.  The
    data graph's overflow layer (added edges, tombstones) is left in
    place — reading it is mutation-free — so publishing an edge update
    costs nothing proportional to the data graph.  After this, all
    query-side reads are mutation-free until the next update.
    {!Query_eval.eval_batch} calls it before spawning. *)

(** {1 Derived views} *)

val as_data_graph : t -> Data_graph.t * int array
(** View the live index graph as a data graph (Theorem 2: an index can
    be rebuilt from any of its refinements).  Returns the derived graph
    and a map from derived node id to index node id.  The derived node
    [0] is the index node holding the data root. *)

val dense_classes : t -> int array * int array
(** [(cls, order)]: the live classes renumbered densely in first-touch
    order over data nodes.  [cls.(u)] is data node [u]'s dense class and
    [order.(c)] the index node id behind dense class [c].  This is the
    numbering {!Index_serial} writes. *)

val copy : t -> t
(** A deep, independent copy (data graph and label pool included)
    renumbered by {!dense_classes}, so
    [Index_serial.to_string (copy t) = Index_serial.to_string t].
    Retired slots, forwarding history, the tracer and the generation
    counter are not carried over. *)

val partition_signature : t -> (int * int) array
(** For testing: array indexed by data node of
    [(canonical class representative, k of its class)], where the
    representative is the smallest data node id in the class.  Two
    index graphs are structurally equal iff their signatures are. *)

val check_invariants : t -> unit
(** Validate internal consistency and the D(k)-index definition
    (Definition 3: [k(parent) >= k(child) - 1] on every edge); raises
    [Failure] with a description otherwise.  For tests. *)

val stats_line : t -> string
