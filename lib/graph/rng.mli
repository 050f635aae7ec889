(** Deterministic pseudo-random number generator (splitmix64).

    All stochastic workload generation in this repository flows through this
    module so that every test, example and benchmark is reproducible from a
    seed.  The generator is the splitmix64 sequence of Steele, Lea and
    Flood, which has a full 2^64 period and passes BigCrush. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator deterministically derived from
    [seed]. Distinct seeds yield decorrelated streams. *)

val split : t -> t
(** [split t] derives an independent child generator and advances [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0].
    Allocates nothing. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle: for [i] from the last index down to 1,
    swap [a.(i)] with [a.(int t (i + 1))].  Allocates nothing. *)

val shuffle_ints : t -> int array -> unit
(** {!shuffle} specialised to [int array]: the same draws and the same
    permutation, without the generic array accesses (about 1.5x faster on
    the multi-million-entry weight pools of {!Generators}). *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)
