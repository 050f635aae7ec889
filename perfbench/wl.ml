(* What every workload provides to the measurement loop in perfbench.ml. *)

type size =
  | Full  (* the sizes BENCHMARK.json describes *)
  | Tiny  (* at most 1k nodes, for the self-test *)

type verdict = {
  attempted : int;  (* operations judged: one per batch call, one per request *)
  failed : int;
  answered : int;  (* answers the call delivered: 1 for a batch call *)
  errors : string list;  (* oracle failures; [] when the output is correct *)
  exact : (string * int) list;
      (* model counts that must repeat bit-for-bit for one seed: rounds,
         messages, latency percentiles, ledger stage rounds *)
}

module type S = sig
  type ctx
  type out

  val name : string

  val instances : int
  (** Inputs an untraced run measures, each from its own seed and in its
      own runner process; at least 2. *)

  val nominal_call_s : float
  (** About how long the main call takes on the reference host; sets how
      many warm repeats fill --seconds (at least [Wl.min_repeats] per
      instance). *)

  val setup : Span.t -> size -> seed:int -> ctx
  (** Everything before the first timed call. *)

  val exec : Span.t -> ctx -> out
  (** The workload's main call.  With a recording [Span.t] it is the
      traced variant: same inputs, same outputs, split by layer. *)

  val check : ctx -> out -> verdict
  (** The oracle; also extracts the exact counts. *)

  val tamper : ctx -> out -> out
  (** A deliberately wrong answer the oracle must reject (self-test). *)

  val inputs : ctx -> (string * int) list
  (** Input sizes for the provenance record. *)

  val probe : Span.t -> ctx -> unit
  (** Traced run only: extra calls that time single layers (a rebuild,
      a sharded or guarded execution), recorded as spans and notes. *)

  val layers : Span.t -> (string * float) list
  (** Traced run only: the per-layer metrics this workload exercises,
      computed from the recorded spans and notes.  perfbench/layers.json
      says which workloads exercise each metric; run.py prints the others
      as 0. *)
end

(* Warm repeats per instance, whatever --seconds allows: run_s is a median
   over warm calls only, so every instance must contribute more than one. *)
let min_repeats = 2

let median = function
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Nearest-rank percentile, as [Kdom_congest.Serve.percentile]. *)
let percentile l p =
  match l with
  | [] -> 0.
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let k = Array.length a in
    let r = int_of_float (Float.ceil (float p /. 100. *. float k)) in
    a.(max 0 (min (k - 1) (r - 1)))

let sum l = List.fold_left ( +. ) 0. l
let ratio a b = if b = 0. then 0. else a /. b
let span_median sp name = median (List.map Span.dur (Span.named sp name))

(* The first span of a name is the cold call; later ones are warm. *)
let cold_dur sp name = match Span.named sp name with s :: _ -> Span.dur s | [] -> 0.

let warm sp name =
  match Span.named sp name with [] -> [] | [ s ] -> [ s ] | _ :: rest -> rest

let warm_median sp name = median (List.map Span.dur (warm sp name))
let minor_median sp name = median (List.map (fun s -> s.Span.minor_words) (warm sp name))

(* The exact counts perfbench.ml notes after every judged call (last value). *)
let exact_of sp key =
  match List.rev (Span.notes sp ("exact." ^ key)) with v :: _ -> v | [] -> 0.

(* A sink that stamps every round with the wall clock: per-round duration
   (the first round is timed from the sink's creation), nodes stepped,
   receivers and delivered messages and bits.  Passing any sink other than
   [Sink.null] turns on the engine's per-message dispatch and turns off
   [broadcast1]'s lean store loops, so only a separate probe call uses it,
   never a call whose time or allocation is reported. *)
let round_sink sp =
  let last = ref (Span.clock sp) in
  {
    Kdom_congest.Engine.Sink.null with
    on_round =
      (fun info ->
        let t = Span.clock sp in
        Span.note sp "engine.round_us" ((t -. !last) *. 1e6);
        last := t;
        Span.note sp "engine.stepped" (float info.stepped);
        Span.note sp "engine.receivers" (float info.receivers);
        Span.note sp "engine.delivered" (float info.delivered);
        Span.note sp "engine.delivered_bits" (float info.delivered_bits));
  }

(* Engine per-round metrics from the notes [round_sink] left. *)
let engine_round_layers sp =
  let rounds = List.length (Span.notes sp "engine.stepped") in
  let per_round name = ratio (sum (Span.notes sp name)) (float rounds) in
  let us = Span.notes sp "engine.round_us" in
  [
    ("engine.round_us_p50", percentile us 50);
    ("engine.round_us_p99", percentile us 99);
    ("engine.stepped_per_round", per_round "engine.stepped");
    ("engine.receivers_per_round", per_round "engine.receivers");
    ( "codec.bits_per_msg",
      ratio (sum (Span.notes sp "engine.delivered_bits")) (sum (Span.notes sp "engine.delivered")) );
  ]
