(** Weighted undirected graphs.

    Nodes are the integers [0 .. n-1].  Edges carry integer weights; the
    paper assumes distinct, polynomially bounded weights so that an edge
    weight fits in one [O(log n)]-bit message and the MST is unique.  The
    structure is immutable once built. *)

type edge = { u : int; v : int; w : int; id : int }
(** An undirected edge between [u] and [v] ([u < v]) with weight [w].
    [id] is the edge's index in the columns.  {!Graph.t} stores no such
    records: {!edge} and {!edges} build them on demand. *)

type t
(** A graph, stored as flat int columns: three edge columns and a CSR
    (compressed sparse row) adjacency.

    Edge [id] ([0 <= id < m]) joins [lo.(id) < hi.(id)] with weight
    [weights.(id)].  Node [v]'s incident half-edges occupy the index range
    [offsets.(v) .. offsets.(v+1) - 1] of {!targets} (the opposite
    endpoint) and {!edge_ids} (the joining edge's id).  Invariants,
    enforced by the only constructor {!of_columns}:
    {ul
    {- [offsets] has [n + 1] entries, [offsets.(0) = 0],
       [offsets.(n) = 2 * m], non-decreasing;}
    {- each node's segment of [targets] is strictly ascending (so there are
       no duplicate edges) and never contains the node itself (no
       self-loops);}
    {- index [j] of [v]'s segment holds [u = targets.(j)] and
       [e = edge_ids.(j)] with edge [e] joining [u] and [v].}}

    The index [j] is also the engine's port (slot) number for the directed
    edge [(v, targets.(j))]. *)

(** {1 Construction} *)

val of_columns : n:int -> int array -> int array -> int array -> t
(** [of_columns ~n us vs ws] builds a graph on [n] nodes whose edge [i]
    joins [us.(i)] and [vs.(i)] (either orientation) with weight [ws.(i)].
    Builds the CSR in [O(n + m)] time by counting sort, with no hashing.
    The self-loop and range checks run over the whole input first, then
    the duplicate check (in either orientation); each raises
    [Invalid_argument "Graph.of_edge_array: ..."] (self-loop, endpoint out
    of range, duplicate edge), as does a negative [n].  Columns of unequal
    lengths raise [Invalid_argument "Graph.of_columns: column lengths
    differ"].

    The three arrays are adopted, not copied: they become the graph's
    columns, [us]/[vs] reordered in place so that [us.(i) < vs.(i)].  The
    caller must not use or mutate them afterwards. *)

val of_edges : n:int -> (int * int * int) list -> t
(** [of_edges ~n es] builds a graph on [n] nodes from [(u, v, w)] triples:
    copies them into fresh columns and calls {!of_columns}. *)

val of_edge_array : n:int -> (int * int * int) array -> t
(** Array variant of {!of_edges}.  Edge [i] of the input gets id [i]. *)

(** {1 Accessors} *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val edges : t -> edge array
(** All edges; index [i] has [id = i].  Builds a fresh array of fresh
    records on every call (about [6 m] words): whole-edge scans should read
    {!lo}, {!hi} and {!weights} instead. *)

val edge : t -> int -> edge
(** [edge g id] is the edge with identifier [id], built on demand. *)

val degree : t -> int -> int

val neighbor : t -> int -> int -> int
(** [neighbor g v i] is the [i]-th smallest neighbour of [v],
    [0 <= i < degree g v].  Raises [Invalid_argument] outside that range. *)

val iter_neighbors : t -> int -> (int -> int -> unit) -> unit
(** [iter_neighbors g v f] calls [f u id] for each edge [id] incident to
    [v] with opposite endpoint [u], in increasing order of [u].  Allocates
    nothing. *)

val fold_neighbors : t -> int -> (int -> int -> 'a -> 'a) -> 'a -> 'a
(** [fold_neighbors g v f init] folds [f u id] over the same sequence as
    {!iter_neighbors}, in the same order. *)

val port : t -> int -> int -> int
(** [port g u v] is the CSR index [j] with [targets.(j) = v] inside [u]'s
    segment, or [-1] when [v] is not a neighbour of [u] (including when
    either id is outside [0 .. n-1]).  O(log deg u) by binary search. *)

(** {2 Shared columns}

    These return the graph's own arrays, not copies: the engine adopts the
    CSR arrays as its port map by reference.  They are never mutated after
    construction, and callers must not mutate them either. *)

val lo : t -> int array
(** The [m] smaller endpoints: edge [id] is [(lo.(id), hi.(id))]. *)

val hi : t -> int array
(** The [m] larger endpoints. *)

val weights : t -> int array
(** The [m] edge weights. *)

val offsets : t -> int array
(** The [n + 1] segment offsets. *)

val targets : t -> int array
(** The [2 * m] opposite endpoints, ascending within each segment. *)

val edge_ids : t -> int array
(** The [2 * m] edge ids, parallel to {!targets}. *)

val other_endpoint : edge -> int -> int
(** [other_endpoint e v] is the endpoint of [e] that is not [v]. *)

val find_edge : t -> int -> int -> edge option
(** [find_edge g u v] is the edge joining [u] and [v], if any. *)

val total_weight : t -> int
(** Sum of all edge weights. *)

val has_distinct_weights : t -> bool
(** Whether all edge weights are pairwise distinct (MST uniqueness). *)

val is_connected : t -> bool

(** {1 Derived graphs} *)

val subgraph_of_edges : t -> edge list -> t
(** [subgraph_of_edges g es] is the graph on the same node set containing
    exactly the edges [es] (which must be edges of [g]). *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump, for debugging and examples. *)
