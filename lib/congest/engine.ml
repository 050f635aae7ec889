open Kdom_graph

type payload = int array

type stats = { rounds : int; messages : int; max_inflight : int }

exception Round_limit_exceeded of int
exception Congestion_violation of string

(* The model's word is 16 bits; a message of O(log n) bits is a constant
   number of words for any practical n (= the historical default of 4) and
   grows logarithmically beyond 2^32 nodes. *)
let word_bits = 16

let bits_needed n =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x lsr 1) in
  go 0 (max 1 n)

let default_max_words n = max 4 (2 + ((bits_needed n + word_bits - 1) / word_bits))
let default_max_rounds n = 10_000 + (100 * n)

(* A zero-copy view over the engine's packed delivery arena: flat sender
   and slot arrays, filled in sender-ascending order.  Each entry is either
   a reference into the arena ([slot >= 0]: the frame lives packed at byte
   offset [slot * a_stride]) or a boxed payload ([slot = -1], the shape
   [of_list] builds for the reference simulator and the async layer).  The
   engine reuses one arena for every step, so a view is only valid for the
   duration of the [step] call it was passed to; [read] repositions a
   shared decoder, so at most one frame is being read at a time. *)
module Inbox = struct
  type t = {
    mutable src : int array;
    mutable slot : int array; (* arena slot of entry i, -1 = boxed *)
    mutable pay : payload array; (* boxed payloads for slot = -1 entries *)
    mutable len : int;
    (* Arena attachment, installed by the engine per delivery phase. *)
    mutable a_data : Bytes.t;
    mutable a_wire : int array;
    mutable a_wlog : int array;
    mutable a_stride : int;
    rd : Codec.reader; (* shared repositionable frame decoder *)
    wr : Codec.writer; (* scratch encoder for [read] on boxed entries *)
    (* Lazy arena fill: the executors mark the stepping node instead of
       scanning its in-ports up front; the scan runs on the first
       accessor call, so kernels that ignore their mail this step
       (flood-style broadcasts) never pay for it. *)
    mutable fill_node : int; (* node awaiting a deferred fill, -1 = none *)
    mutable filler : t -> unit; (* installed per executor *)
  }

  let no_fill (_ : t) = ()

  let create ~cap () =
    {
      src = Array.make (max 1 cap) 0;
      slot = Array.make (max 1 cap) (-1);
      pay = Array.make (max 1 cap) [||];
      len = 0;
      a_data = Bytes.empty;
      a_wire = [||];
      a_wlog = [||];
      a_stride = 0;
      rd = Codec.reader ();
      wr = Codec.writer ();
      fill_node = -1;
      filler = no_fill;
    }

  let ensure t = if t.fill_node >= 0 then t.filler t

  let attach t ~data ~wire ~wlog ~stride =
    t.a_data <- data;
    t.a_wire <- wire;
    t.a_wlog <- wlog;
    t.a_stride <- stride

  let length t =
    ensure t;
    t.len

  let is_empty t =
    ensure t;
    t.len = 0

  let check t i =
    ensure t;
    if i < 0 || i >= t.len then invalid_arg "Engine.Inbox: index out of bounds"

  let sender t i =
    check t i;
    t.src.(i)

  let payload_unchecked t i =
    let s = t.slot.(i) in
    if s < 0 then t.pay.(i)
    else
      Codec.decode t.a_data ~base:(s * t.a_stride) ~wire:t.a_wire.(s)
        ~words:t.a_wlog.(s)

  let payload t i =
    check t i;
    payload_unchecked t i

  let words t i =
    check t i;
    let s = t.slot.(i) in
    if s < 0 then Array.length t.pay.(i) else t.a_wlog.(s)

  let read t i =
    check t i;
    let s = t.slot.(i) in
    if s >= 0 then
      Codec.attach_reader t.rd t.a_data ~base:(s * t.a_stride)
        ~wire:t.a_wire.(s) ~words:t.a_wlog.(s)
    else begin
      let p = t.pay.(i) in
      Codec.scratch_writer t.wr ~budget:(Array.length p);
      Array.iter (Codec.put t.wr) p;
      Codec.attach_reader t.rd (Codec.writer_bytes t.wr) ~base:0
        ~wire:(Codec.wire t.wr) ~words:(Codec.words t.wr)
    end;
    t.rd

  let iter f t =
    ensure t;
    for i = 0 to t.len - 1 do
      f t.src.(i) (payload_unchecked t i)
    done

  let fold f init t =
    ensure t;
    let acc = ref init in
    for i = 0 to t.len - 1 do
      acc := f !acc t.src.(i) (payload_unchecked t i)
    done;
    !acc

  let of_list l =
    let n = List.length l in
    let t = create ~cap:(max 1 n) () in
    List.iter
      (fun (u, p) ->
        t.src.(t.len) <- u;
        t.slot.(t.len) <- -1;
        t.pay.(t.len) <- p;
        t.len <- t.len + 1)
      l;
    t
end

(* Wake-up hints: when does a node need to be stepped again?  Consulted
   after every [step]; the latest hint replaces any earlier one.  In every
   mode a delivered message wakes the node — the hint only controls whether
   it is also stepped on message-free rounds. *)
type wake =
  | Always  (* step every round while live (the legacy dense schedule) *)
  | Next  (* step in the next round even without messages *)
  | At of int  (* step at that absolute round; past rounds schedule nothing *)
  | OnMessage  (* step only when a message arrives *)

let always _ = Always

(* The allocation-free send path.  An emitter is a reusable cursor the
   executor attaches to its own send machinery: [start] positions the
   shared writer directly on the destination slot's arena region (after
   the non-neighbor / duplicate-edge checks), the algorithm [Codec.put]s
   the frame's words, and [commit] publishes the frame — no payload
   array, no cons cell, no copy.  [frame1]..[frame4] are closure-free
   shorthands for fixed-shape frames; [send] is the closure flavor. *)
module Emit = struct
  type t = {
    ew : Codec.writer;
    mutable enode : int; (* current sender, set by the executor *)
    mutable eslot : int; (* destination slot of the open frame *)
    mutable edst : int;
    mutable edead : bool; (* open frame targets a churn-dead endpoint *)
    mutable eopen : bool;
    mutable estart : t -> int -> Codec.writer; (* installed per executor *)
    mutable ecommit : t -> unit;
    mutable ebroadcast1 : t -> int -> unit;
  }

  let unattached : t -> int -> Codec.writer =
   fun _ _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let unattached_commit : t -> unit =
   fun _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let unattached_broadcast : t -> int -> unit =
   fun _ _ -> invalid_arg "Engine.Emit: emitter not attached to an executor"

  let make () =
    {
      ew = Codec.writer ();
      enode = -1;
      eslot = -1;
      edst = -1;
      edead = false;
      eopen = false;
      estart = unattached;
      ecommit = unattached_commit;
      ebroadcast1 = unattached_broadcast;
    }

  let start t ~dst = t.estart t dst
  let commit t = t.ecommit t
  let broadcast1 t a = t.ebroadcast1 t a

  let send t ~dst f =
    f (t.estart t dst);
    t.ecommit t

  let frame1 t ~dst a =
    let w = t.estart t dst in
    Codec.put w a;
    t.ecommit t

  let frame2 t ~dst a b =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    t.ecommit t

  let frame3 t ~dst a b c =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    Codec.put w c;
    t.ecommit t

  let frame4 t ~dst a b c d =
    let w = t.estart t dst in
    Codec.put w a;
    Codec.put w b;
    Codec.put w c;
    Codec.put w d;
    t.ecommit t
end

type 'st ealgorithm = {
  einit : Graph.t -> int -> 'st;
  estep :
    Graph.t -> round:int -> node:int -> 'st -> Inbox.t -> Emit.t -> 'st;
  ehalted : 'st -> bool;
  ewake : 'st -> wake;
}

module Sink = struct
  type round_info = {
    round : int;
    delivered : int;
    delivered_words : int;
    delivered_bits : int;
    receivers : int;
    stepped : int;
    skipped : int;
    woken : int;
    sent : int;
    dropped : int;
    duplicated : int;
    retransmits : int;
    corrupted : int;
    crashed : int;
    arrived : int;
    departed : int;
    inserted : int;
  }

  type t = {
    on_message : round:int -> src:int -> dst:int -> words:int -> unit;
    on_round : round_info -> unit;
    on_finish : unit -> unit;
  }

  let null =
    {
      on_message = (fun ~round:_ ~src:_ ~dst:_ ~words:_ -> ());
      on_round = ignore;
      on_finish = ignore;
    }

  let tee a b =
    {
      on_message =
        (fun ~round ~src ~dst ~words ->
          a.on_message ~round ~src ~dst ~words;
          b.on_message ~round ~src ~dst ~words);
      on_round =
        (fun ri ->
          a.on_round ri;
          b.on_round ri);
      on_finish =
        (fun () ->
          a.on_finish ();
          b.on_finish ());
    }

  let counters () =
    let acc = ref [] in
    ( { null with on_round = (fun ri -> acc := ri :: !acc) },
      fun () -> List.rev !acc )

  (* Associative, commutative merge of two views of the same round: every
     field is a sum except [round], which must agree.  This is the combine
     the sharded executor folds per-shard counters with at the barrier, and
     it makes [counters]/[activity] aggregation merge-safe: teeing a sink
     across shards and combining per-round records is equivalent to one
     sink observing the whole round. *)
  let combine_round_info a b =
    if a.round <> b.round then
      invalid_arg "Engine.Sink.combine_round_info: round mismatch";
    {
      round = a.round;
      delivered = a.delivered + b.delivered;
      delivered_words = a.delivered_words + b.delivered_words;
      delivered_bits = a.delivered_bits + b.delivered_bits;
      receivers = a.receivers + b.receivers;
      stepped = a.stepped + b.stepped;
      skipped = a.skipped + b.skipped;
      woken = a.woken + b.woken;
      sent = a.sent + b.sent;
      dropped = a.dropped + b.dropped;
      duplicated = a.duplicated + b.duplicated;
      retransmits = a.retransmits + b.retransmits;
      corrupted = a.corrupted + b.corrupted;
      crashed = a.crashed + b.crashed;
      arrived = a.arrived + b.arrived;
      departed = a.departed + b.departed;
      inserted = a.inserted + b.inserted;
    }

  let empty_round_info round =
    {
      round;
      delivered = 0;
      delivered_words = 0;
      delivered_bits = 0;
      receivers = 0;
      stepped = 0;
      skipped = 0;
      woken = 0;
      sent = 0;
      dropped = 0;
      duplicated = 0;
      retransmits = 0;
      corrupted = 0;
      crashed = 0;
      arrived = 0;
      departed = 0;
      inserted = 0;
    }

  let activity ~n =
    let sent = Array.make n 0 and received = Array.make n 0 in
    ( {
        null with
        on_message =
          (fun ~round:_ ~src ~dst ~words:_ ->
            sent.(src) <- sent.(src) + 1;
            received.(dst) <- received.(dst) + 1);
      },
      sent,
      received )

  let jsonl ?(messages = false) ?(faults = false) oc =
    {
      on_message =
        (fun ~round ~src ~dst ~words ->
          if messages then
            Printf.fprintf oc
              "{\"type\":\"msg\",\"round\":%d,\"src\":%d,\"dst\":%d,\"words\":%d}\n"
              round src dst words);
      on_round =
        (fun ri ->
          (* With [faults] the three counters are part of every record, so a
             lossy run yields one homogeneous schema that columnar parsers
             can ingest; without it they appear only when non-zero, keeping
             synchronous engine traces byte-stable. *)
          let fault_fields =
            if
              faults || ri.dropped <> 0 || ri.duplicated <> 0
              || ri.retransmits <> 0 || ri.corrupted <> 0 || ri.crashed <> 0
              || ri.arrived <> 0 || ri.departed <> 0 || ri.inserted <> 0
            then
              Printf.sprintf
                ",\"dropped\":%d,\"duplicated\":%d,\"retransmits\":%d,\
                 \"corrupted\":%d,\"crashed\":%d,\"arrived\":%d,\
                 \"departed\":%d,\"inserted\":%d"
                ri.dropped ri.duplicated ri.retransmits ri.corrupted
                ri.crashed ri.arrived ri.departed ri.inserted
            else ""
          in
          Printf.fprintf oc
            "{\"type\":\"round\",\"round\":%d,\"delivered\":%d,\"words\":%d,\
             \"bits\":%d,\"receivers\":%d,\"stepped\":%d,\"skipped\":%d,\
             \"woken\":%d,\"sent\":%d%s}\n"
            ri.round ri.delivered ri.delivered_words ri.delivered_bits
            ri.receivers ri.stepped ri.skipped ri.woken ri.sent fault_fields);
      on_finish = (fun () -> flush oc);
    }
end

(* One direction of the double buffer, as one shard sees it.  The packed
   frame arena and the slot- and node-indexed arrays ([data], [wire],
   [wlog], [count]) are the engine's, shared by every shard of every plan:
   each cell has one owning shard per phase (the slot's sender while
   frames are sent, the receiver's shard afterwards).  The written and
   active stacks and the running totals are the shard's own, so visiting
   and clearing what a round touched stays shard-local. *)
type buf = {
  mutable data : Bytes.t; (* packed frame arena, [stride] bytes per slot;
                             sized lazily at exec once max_words is known *)
  wire : int array;       (* per slot: wire words of the frame, -1 = empty *)
  wlog : int array;       (* per slot: logical words of the frame *)
  count : int array;      (* per node: messages addressed to it *)
  written : int array;    (* stack of this shard's in-slots written *)
  mutable wlen : int;
  active : int array;     (* stack of this shard's receivers with count > 0 *)
  mutable alen : int;
  mutable total : int;
  mutable words : int;    (* logical words buffered *)
  mutable bits : int;     (* measured wire bits buffered *)
}

(* Cross-shard frame list for one (src shard, dst shard) pair: appended by
   the source in stepping order while frames are sent, drained and reset
   by the destination at the exchange.  The phases are barrier-separated,
   so the two owners never touch it concurrently.  Only the slot travels:
   the source encodes the frame straight into the shared arena (every
   directed slot has a unique sender), and the destination merely learns
   which slots arrived. *)
type xarena = {
  mutable x_slot : int array;
  mutable x_len : int;
}

type shard = {
  sh_live : int array;   (* owned live nodes, ascending *)
  mutable sh_live_len : int;
  sh_frontier : int array;
  sh_always : int array; (* owned nodes in Always mode, ascending when clean *)
  mutable sh_alen : int;
  mutable sh_buckets : int list array;  (* sh_buckets.(r) = nodes to wake at r *)
  sh_ib : Inbox.t;       (* reusable inbox, sized for the shard's max in-degree *)
  sh_a : buf;
  sh_b : buf;
  mutable sh_recv : buf; (* delivery side of the current round *)
  mutable sh_send : buf; (* send side of the current round *)
  (* per-round outputs of the step phase *)
  mutable sh_stepped : int;
  mutable sh_woken : int;
  mutable sh_receivers : int;
  mutable sh_delivered_words : int;
  mutable sh_delivered_bits : int;
  mutable sh_send_dropped : int;
  mutable sh_hinted : bool;
  mutable sh_vmin : int;  (* halted-receiver candidate for the next round *)
  (* control flags written serially / by the owner *)
  mutable sh_crashed_live : int;
  mutable sh_compact : bool;
  mutable sh_hit : bool;  (* an in-flight frame to this shard was dropped *)
  mutable sh_always_dirty : bool;
  mutable sh_always_unsorted : bool;
  (* first violation: node, priority (0 halted < 1 send), exception *)
  mutable sh_vnode : int;
  mutable sh_vprio : int;
  mutable sh_vexn : exn option;
  (* deferred on_message events, (src, dst, words), src-ascending; a
     single shard dispatches inline and never fills them *)
  mutable sh_ev_src : int array;
  mutable sh_ev_dst : int array;
  mutable sh_ev_w : int array;
  mutable sh_ev_len : int;
  sh_em : Emit.t;
}

(* A node-to-shard assignment with its shards.  Shard 0 of every plan is
   the engine's home shard; the others are built on first use. *)
type plan = {
  p_domains : int;
  p_default : bool;        (* contiguous ranges, no caller partition *)
  (* With one shard every node is its own shard's and both node maps stay
     empty; the executor never reads them then. *)
  p_shard_of : int array;  (* a copy: the caller may reuse its array *)
  p_local : Bytes.t;       (* '\001' iff every neighbor of v shares v's shard *)
  p_shards : shard array;
  p_xas : xarena array array;  (* p_xas.(src).(dst) *)
}

type t = {
  g : Graph.t;
  n : int;
  ports : int;  (* 2m directed slots *)
  (* The port map is Graph's own CSR, shared by reference: slot [s] is
     index [s] of [Graph.targets g].  The graph is undirected, so node v's
     segment [out_off.(v), out_off.(v+1)) lists both where v sends (slot
     s, to out_dst.(s)) and who sends to v (out_dst.(j), on slot
     rev_slot.(j)), sender-ascending. *)
  out_off : int array;  (* n+1: Graph.offsets g *)
  out_dst : int array;  (* 2m: Graph.targets g, strictly ascending per source *)
  rev_slot : int array; (* 2m: slot of the reverse direction of each slot *)
  (* per-node schedule state, shared by the shards (one owner per node) *)
  is_live : bool array;
  is_always : bool array;
  wake_at : int array;  (* pending timer round per node, -1 = none *)
  fstamp : int array;   (* fstamp.(v) = r  <=>  v already in round r's frontier *)
  home : plan;          (* one domain: the single shard owns every node *)
  mutable wide : plan option;  (* the last plan used with more domains *)
  mutable running : bool;
  mutable dirty : bool; (* an exec aborted mid-round: scrub the arenas *)
}

let make_buf ~n ~ports =
  {
    data = Bytes.empty;
    wire = Array.make (max 1 ports) (-1);
    wlog = Array.make (max 1 ports) 0;
    count = Array.make (max 1 n) 0;
    written = Array.make (max 1 ports) 0;
    wlen = 0;
    active = Array.make (max 1 n) 0;
    alen = 0;
    total = 0;
    words = 0;
    bits = 0;
  }

(* Arena stride for a given per-message word budget: every logical word
   needs at most [Codec.max_wire_words] 16-bit wire words, plus room for
   the one CRC guard word per frame when integrity guards are on. *)
let stride_for ?(guard = false) ~max_words () =
  (2 * Codec.max_wire_words * max 1 max_words)
  + if guard then 2 * Codec.guard_words else 0

let ensure_arena buf ~ports ~stride =
  let need = max 2 (ports * stride) in
  if Bytes.length buf.data < need then buf.data <- Bytes.create need

(* [cap] bounds the shard's node count, [indeg] its max in-degree.  The
   deferred in-port scan behind [Inbox.ensure] walks the receiver's
   segment forward, so the inbox comes out sender-ascending. *)
let make_shard ~out_off ~out_dst ~rev_slot ~cap ~indeg a b =
  let ib = Inbox.create ~cap:(max 1 indeg) () in
  let sh =
    {
      sh_live = Array.make cap 0;
      sh_live_len = 0;
      sh_frontier = Array.make cap 0;
      sh_always = Array.make cap 0;
      sh_alen = 0;
      sh_buckets = Array.make 16 [];
      sh_ib = ib;
      sh_a = a;
      sh_b = b;
      sh_recv = b;
      sh_send = a;
      sh_stepped = 0;
      sh_woken = 0;
      sh_receivers = 0;
      sh_delivered_words = 0;
      sh_delivered_bits = 0;
      sh_send_dropped = 0;
      sh_hinted = false;
      sh_vmin = -1;
      sh_crashed_live = 0;
      sh_compact = false;
      sh_hit = false;
      sh_always_dirty = false;
      sh_always_unsorted = false;
      sh_vnode = -1;
      sh_vprio = 0;
      sh_vexn = None;
      sh_ev_src = [||];
      sh_ev_dst = [||];
      sh_ev_w = [||];
      sh_ev_len = 0;
      sh_em = Emit.make ();
    }
  in
  ib.Inbox.filler <-
    (fun ib ->
      let v = ib.Inbox.fill_node in
      ib.Inbox.fill_node <- -1;
      let dv = sh.sh_recv in
      if dv.count.(v) > 0 then
        for j = out_off.(v) to out_off.(v + 1) - 1 do
          let slot = rev_slot.(j) in
          if dv.wire.(slot) >= 0 then begin
            ib.Inbox.src.(ib.Inbox.len) <- out_dst.(j);
            ib.Inbox.slot.(ib.Inbox.len) <- slot;
            ib.Inbox.len <- ib.Inbox.len + 1
          end
        done);
  sh

let create g =
  let n = Graph.n g in
  let ports = 2 * Graph.m g in
  let out_off = Graph.offsets g and out_dst = Graph.targets g in
  (* One pass over the shared CSR: sources ascend, and every neighbour
     segment is sorted, so the reverse of (v -> u) is the next unclaimed
     slot of u's segment. *)
  let rev_slot = Array.make (max 1 ports) 0 in
  let next = Array.sub out_off 0 n in
  let max_indeg = ref 0 in
  for v = 0 to n - 1 do
    max_indeg := max !max_indeg (out_off.(v + 1) - out_off.(v));
    for s = out_off.(v) to out_off.(v + 1) - 1 do
      let u = out_dst.(s) in
      rev_slot.(s) <- next.(u);
      next.(u) <- next.(u) + 1
    done
  done;
  let home_shard =
    make_shard ~out_off ~out_dst ~rev_slot ~cap:(max 1 n) ~indeg:!max_indeg
      (make_buf ~n ~ports) (make_buf ~n ~ports)
  in
  {
    g;
    n;
    ports;
    out_off;
    out_dst;
    rev_slot;
    is_live = Array.make (max 1 n) false;
    is_always = Array.make (max 1 n) false;
    wake_at = Array.make (max 1 n) (-1);
    fstamp = Array.make (max 1 n) (-1);
    home =
      {
        p_domains = 1;
        p_default = true;
        p_shard_of = [||];
        p_local = Bytes.empty;
        p_shards = [| home_shard |];
        p_xas = [| [| { x_slot = [||]; x_len = 0 } |] |];
      };
    wide = None;
    running = false;
    dirty = false;
  }

let graph e = e.g
let port_count e = e.ports
let degree e v = Graph.degree e.g v

let iter_neighbors e v f =
  for s = e.out_off.(v) to e.out_off.(v + 1) - 1 do
    f e.out_dst.(s)
  done

(* Slots are Graph's CSR indices, so the port lookup is Graph's binary
   search of the source's sorted segment. *)
let find_port e ~src ~dst = Graph.port e.g src dst

(* ------------------------------------------------------------------ *)
(* Topology churn: a deterministic schedule of permanent node fail-stops
   and directed-edge down/up events, compiled against the engine's port map
   into a mutable liveness view.  The CSR arrays are never rebuilt — a dead
   port merely drops the frames routed through it, and a crashed node's
   slots are skipped like any other empty slot by the arena inbox fill. *)
module Churn = struct
  type event =
    | Crash of { node : int; at : int }
    | Edge_down of { src : int; dst : int; at : int }
    | Edge_up of { src : int; dst : int; at : int }
    | Edge_add of { src : int; dst : int; at : int }
    | Arrive of { node : int; at : int }
    | Depart of { node : int; at : int }

  let round_of = function
    | Crash { at; _ } | Edge_down { at; _ } | Edge_up { at; _ }
    | Edge_add { at; _ } | Arrive { at; _ } | Depart { at; _ } -> at

  (* Pre-resolved form: the port lookup happens once, at compile time. *)
  type op =
    | Op_crash of int
    | Op_down of int
    | Op_up of int
    | Op_add of int
    | Op_arrive of int
    | Op_depart of int

  type delta = {
    d_crashed : int;
    d_arrived : int;
    d_departed : int;
    d_inserted : int;
  }

  let no_delta = { d_crashed = 0; d_arrived = 0; d_departed = 0; d_inserted = 0 }

  type t = {
    events : event array;  (* sorted by round, compile-order stable *)
    ops : op array;        (* events.(i) resolved against the port map *)
    pairs : (int * int) array;  (* (src, dst) of edge events; (-1, -1) else *)
    crashed : bool array;  (* n: current liveness view *)
    dormant : bool array;  (* n: reserved node not yet arrived *)
    edge_down : bool array;  (* ports: current per-slot view *)
    down_pairs : (int * int, unit) Hashtbl.t;
        (* the (src, dst) view [advance] maintains for port-map-less
           consumers (the reference runtime) *)
    mutable cursor : int;
  }

  let compile e events =
    let n = e.n in
    let check_node what node =
      if node < 0 || node >= n then
        invalid_arg (Printf.sprintf "Engine.Churn: %s of non-node %d" what node)
    in
    let check_round at =
      if at < 0 then
        invalid_arg (Printf.sprintf "Engine.Churn: event at negative round %d" at)
    in
    let resolve ev =
      match ev with
      | Crash { node; at } ->
        check_node "crash" node;
        check_round at;
        Op_crash node
      | Arrive { node; at } ->
        check_node "arrival" node;
        check_round at;
        Op_arrive node
      | Depart { node; at } ->
        check_node "departure" node;
        check_round at;
        Op_depart node
      | Edge_down { src; dst; at } | Edge_up { src; dst; at }
      | Edge_add { src; dst; at } ->
        check_round at;
        let slot = find_port e ~src ~dst in
        if slot < 0 then
          invalid_arg
            (Printf.sprintf "Engine.Churn: event on non-edge (%d, %d)" src dst);
        (match ev with
        | Edge_down _ -> Op_down slot
        | Edge_add _ -> Op_add slot
        | _ -> Op_up slot)
    in
    let tagged = List.mapi (fun i ev -> (round_of ev, i, ev)) events in
    let sorted =
      List.sort (fun (r1, i1, _) (r2, i2, _) -> compare (r1, i1) (r2, i2)) tagged
    in
    let events = Array.of_list (List.map (fun (_, _, ev) -> ev) sorted) in
    {
      events;
      ops = Array.map resolve events;
      pairs =
        Array.map
          (function
            | Edge_down { src; dst; _ } | Edge_up { src; dst; _ }
            | Edge_add { src; dst; _ } -> (src, dst)
            | Crash _ | Arrive _ | Depart _ -> (-1, -1))
          events;
      crashed = Array.make (max 1 n) false;
      dormant = Array.make (max 1 n) false;
      edge_down = Array.make (max 1 e.ports) false;
      down_pairs = Hashtbl.create 8;
      cursor = 0;
    }

  let events t = Array.to_list t.events

  let last_round t =
    let len = Array.length t.events in
    if len = 0 then -1 else round_of t.events.(len - 1)

  (* A schedule's round-0 view: reserved capacity starts absent.  A slot
     with a pending [Edge_add] is down until the event fires; a node with a
     pending [Arrive] is dormant until it fires — the union CSR carries
     them from the start, the liveness view hides them. *)
  let reset t =
    Array.fill t.crashed 0 (Array.length t.crashed) false;
    Array.fill t.dormant 0 (Array.length t.dormant) false;
    Array.fill t.edge_down 0 (Array.length t.edge_down) false;
    Hashtbl.reset t.down_pairs;
    Array.iteri
      (fun i op ->
        match op with
        | Op_add slot ->
          t.edge_down.(slot) <- true;
          Hashtbl.replace t.down_pairs t.pairs.(i) ()
        | Op_arrive v -> t.dormant.(v) <- true
        | _ -> ())
      t.ops;
    t.cursor <- 0

  let crashed t v = t.crashed.(v)
  let dormant t v = t.dormant.(v)
  let edge_down t ~src ~dst = Hashtbl.mem t.down_pairs (src, dst)

  (* The buffer-less application used by the reference runtime: advance the
     cursor through every event due by [round], updating the liveness views
     only.  (The engine's own exec inlines this so it can also drop the
     in-flight frames the events kill.)  Returns the per-kind counts of
     events that took effect. *)
  let advance t ~round =
    let len = Array.length t.ops in
    let d = ref no_delta in
    while t.cursor < len && round_of t.events.(t.cursor) <= round do
      (match t.ops.(t.cursor) with
      | Op_crash v ->
        if not t.crashed.(v) then begin
          t.crashed.(v) <- true;
          d := { !d with d_crashed = !d.d_crashed + 1 }
        end
      | Op_depart v ->
        if not t.crashed.(v) then begin
          t.crashed.(v) <- true;
          d := { !d with d_departed = !d.d_departed + 1 }
        end
      | Op_arrive v ->
        if t.dormant.(v) then begin
          t.dormant.(v) <- false;
          d := { !d with d_arrived = !d.d_arrived + 1 }
        end
      | Op_down slot ->
        t.edge_down.(slot) <- true;
        Hashtbl.replace t.down_pairs t.pairs.(t.cursor) ()
      | Op_up slot ->
        t.edge_down.(slot) <- false;
        Hashtbl.remove t.down_pairs t.pairs.(t.cursor)
      | Op_add slot ->
        if t.edge_down.(slot) then begin
          t.edge_down.(slot) <- false;
          Hashtbl.remove t.down_pairs t.pairs.(t.cursor);
          d := { !d with d_inserted = !d.d_inserted + 1 }
        end);
      t.cursor <- t.cursor + 1
    done;
    !d

  (* Replay the whole schedule, regardless of when the run stopped: the
     oracle judges eventual k-domination against the post-churn topology.
     In a full replay every scheduled arrival and insertion fires, so a
     node is finally dead iff it ever crashes or departs (both permanent),
     and an edge is finally down iff its last down/up/add event is a
     down. *)
  let final_alive t =
    let alive = Array.make (Array.length t.crashed) true in
    Array.iter
      (function
        | Crash { node; _ } | Depart { node; _ } -> alive.(node) <- false
        | _ -> ())
      t.events;
    alive

  let final_edges_down t =
    let down = Hashtbl.create 8 in
    Array.iter
      (function
        | Edge_down { src; dst; _ } -> Hashtbl.replace down (src, dst) ()
        | Edge_up { src; dst; _ } | Edge_add { src; dst; _ } ->
          Hashtbl.remove down (src, dst)
        | Crash _ | Arrive _ | Depart _ -> ())
      t.events;
    Hashtbl.fold (fun e () acc -> e :: acc) down [] |> List.sort compare
end

(* ------------------------------------------------------------------ *)
(* Wire corruption: a deterministic model of a lying network.  Frames in
   flight are garbled (bursts of bit flips on the packed wire words) or
   truncated, and every decision is a pure hash of (cseed, delivery
   round, slot, lane): the verdict for a frame does not depend on
   iteration order, so the engine at every domain count and the reference
   corrupt — and drop — exactly the same frames.  Enabling corruption
   forces the codec guard word onto every frame; the delivery pass
   verifies each garbled frame and kills what the guard catches, so
   algorithm code never decodes a lying byte.  (An undetected error
   needs an even-weight pattern spread over 17+ bits that also collides
   the CRC *and* stays structurally decodable: probability under 2^-16
   per corrupted frame; the structural check keeps even that case from
   crashing the decoder.) *)
module Corrupt = struct
  type counters = {
    mutable injected : int;  (* frames garbled or truncated in flight *)
    mutable detected : int;  (* garbled frames the guard word caught *)
    mutable truncated : int; (* truncations (always detected) *)
  }

  let fresh_counters () = { injected = 0; detected = 0; truncated = 0 }

  type spec = {
    flip : float;     (* per-wire-word garble probability *)
    burst : int;      (* consecutive wire words garbled per hit, >= 1 *)
    truncate : float; (* per-frame truncation probability *)
    ramp : (int * float) list;
        (* (round, intensity) steps, ascending: the probabilities are
           multiplied by the last step at or before the current round
           (1.0 before the first step).  Chaos storms use this to ramp
           intensity up and carve quiescent windows out. *)
    cseed : int;
    tally : counters; (* reset by the executor at the start of each run *)
  }

  let make ?(flip = 0.) ?(burst = 1) ?(truncate = 0.) ?(ramp = []) ~seed () =
    { flip; burst; truncate; ramp; cseed = seed; tally = fresh_counters () }

  let validate s =
    let prob what p =
      if not (p >= 0. && p <= 1.) then
        invalid_arg
          (Printf.sprintf "Engine.Corrupt: %s %g not in [0, 1]" what p)
    in
    prob "flip probability" s.flip;
    prob "truncate probability" s.truncate;
    if s.burst < 1 then
      invalid_arg (Printf.sprintf "Engine.Corrupt: burst %d < 1" s.burst);
    let last = ref (-1) in
    List.iter
      (fun (r, m) ->
        if r < 0 then
          invalid_arg
            (Printf.sprintf "Engine.Corrupt: ramp step at negative round %d" r);
        if r <= !last then
          invalid_arg "Engine.Corrupt: ramp rounds not strictly ascending";
        if m < 0. then
          invalid_arg
            (Printf.sprintf "Engine.Corrupt: negative ramp intensity %g" m);
        last := r)
      s.ramp

  let intensity s ~round =
    let m = ref 1.0 in
    List.iter (fun (r, mult) -> if r <= round then m := mult) s.ramp;
    !m

  (* SplitMix-style finalizer over OCaml's 63-bit ints (multiplies wrap
     mod 2^63; the constants are odd and fit the int range). *)
  let mix z =
    let z = z * 0x2545F4914F6CDD1D in
    let z = z lxor (z lsr 29) in
    let z = z * 0x1D8E4E27C47D124F in
    let z = z lxor (z lsr 32) in
    z land max_int

  let decide ~cseed ~round ~slot ~lane =
    mix (mix (mix (cseed + round) + slot) + lane)

  (* probabilities compare the hash's low 32 bits against an integer
     threshold, so the verdict is float-rounding-free and identical
     everywhere *)
  let threshold p =
    let p = if p < 0. then 0. else if p > 1. then 1. else p in
    int_of_float (p *. 4294967296.)

  let hit h thr = h land 0xFFFFFFFF < thr

  (* a garble mask is never zero: a hit always changes its word *)
  let mask h =
    let m = (h lsr 24) land 0xFFFF in
    if m = 0 then 1 else m
end

(* ------------------------------------------------------------------ *)
(* Execution: the node set is partitioned into [d] shards stepped on [d]
   OCaml 5 domains (the calling domain included); one domain is the
   one-shard case of the same loop.  The round structure is

     serial: buffer swap, churn and corruption, halted-receiver minimum
     parallel step phase: each shard steps its own frontier in ascending
       node id; frames to its own nodes land directly in its send buffer,
       frames to other shards are appended to a per-(src-shard,
       dst-shard) list
     serial: violation resolution, deferred sink dispatch
     parallel exchange phase: each destination shard drains the lists
       addressed to it in src-shard order
     serial: round record

   Determinism does not depend on scheduling: every mutable cell is owned
   by exactly one shard within a phase (slots by their sender while
   frames are sent, by the receiver's shard afterwards; node state by the
   owner), the cross-shard lists are filled in each source's
   deterministic stepping order and drained in fixed src-shard order, and
   the buffers are slot-indexed so final contents are independent of
   drain interleaving.  With several shards, sink callbacks are deferred
   to the barrier and replayed in ascending source id, the order one
   shard emits them in, so instrumented runs are identical at every
   domain count.

   Violations cannot abort mid-phase without racing the other shards, so
   each shard records its first violation (the node it fired at, plus a
   priority bit ordering the halted-receiver check before the send checks
   at the same node) and stops stepping; the barrier re-raises the
   lexicographically smallest one, which is the violation a single
   ascending sweep hits first. *)

exception Stop_shard

let contiguous_partition ~n ~shards =
  let shard_of = Array.make (max 1 n) 0 in
  for s = 0 to shards - 1 do
    for v = s * n / shards to ((s + 1) * n / shards) - 1 do
      shard_of.(v) <- s
    done
  done;
  shard_of

(* A plan for [d > 1] shards.  Shard 0 is the home shard, whose stacks are
   sized for the whole graph and so fit any node set; the others get
   stacks sized for their own nodes and in-ports (every slot written for
   a shard delivers to one of its nodes) over the engine's shared
   arenas. *)
let build_plan e ~d ~default shard_of =
  let sizes = Array.make d 0 in
  let inports = Array.make d 0 in
  let max_indeg = Array.make d 0 in
  let local = Bytes.make (max 1 e.n) '\001' in
  for v = 0 to e.n - 1 do
    let s = shard_of.(v) in
    sizes.(s) <- sizes.(s) + 1;
    let indeg = e.out_off.(v + 1) - e.out_off.(v) in
    inports.(s) <- inports.(s) + indeg;
    if indeg > max_indeg.(s) then max_indeg.(s) <- indeg;
    for j = e.out_off.(v) to e.out_off.(v + 1) - 1 do
      if shard_of.(e.out_dst.(j)) <> s then Bytes.set local v '\000'
    done
  done;
  let home = e.home.p_shards.(0) in
  let view (b : buf) ~wcap ~cap =
    {
      b with
      written = Array.make wcap 0;
      wlen = 0;
      active = Array.make cap 0;
      alen = 0;
      total = 0;
      words = 0;
      bits = 0;
    }
  in
  let shards =
    Array.init d (fun s ->
        if s = 0 then home
        else begin
          let cap = max 1 sizes.(s) and wcap = max 1 inports.(s) in
          make_shard ~out_off:e.out_off ~out_dst:e.out_dst
            ~rev_slot:e.rev_slot ~cap ~indeg:max_indeg.(s)
            (view home.sh_a ~wcap ~cap) (view home.sh_b ~wcap ~cap)
        end)
  in
  {
    p_domains = d;
    p_default = default;
    p_shard_of = shard_of;
    p_local = local;
    p_shards = shards;
    p_xas =
      Array.init d (fun _ -> Array.init d (fun _ -> { x_slot = [||]; x_len = 0 }));
  }

(* The partition is checked against the requested domain count before
   anything is clamped; the shard count is then the highest shard id in
   use plus one (without a partition, [domains] clamped to [n]).  The
   last multi-shard plan is kept, so a reused engine builds it once. *)
let plan_for e ~domains partition =
  let n = e.n in
  let d =
    match partition with
    | None -> max 1 (min domains n)
    | Some p ->
      if Array.length p <> n then
        invalid_arg "Engine.exec: partition length differs from node count";
      let top = ref 0 in
      Array.iter
        (fun s ->
          if s < 0 || s >= domains then
            invalid_arg "Engine.exec: partition shard id out of range";
          if s > !top then top := s)
        p;
      !top + 1
  in
  if d = 1 then e.home
  else
    match e.wide with
    | Some pl
      when pl.p_domains = d
           &&
           match partition with
           | None -> pl.p_default
           | Some p -> (not pl.p_default) && pl.p_shard_of = p ->
      pl
    | _ ->
      let pl =
        match partition with
        | None ->
          build_plan e ~d ~default:true (contiguous_partition ~n ~shards:d)
        | Some p -> build_plan e ~d ~default:false (Array.copy p)
      in
      e.wide <- Some pl;
      pl

let reset_buf b data =
  b.data <- data;
  b.wlen <- 0;
  b.alen <- 0;
  b.total <- 0;
  b.words <- 0;
  b.bits <- 0

(* Per-run shard state back to its initial values; what an aborted run
   left behind is dropped here. *)
let reset_shard sh ~data_a ~data_b =
  reset_buf sh.sh_a data_a;
  reset_buf sh.sh_b data_b;
  sh.sh_recv <- sh.sh_b;
  sh.sh_send <- sh.sh_a;
  sh.sh_live_len <- 0;
  sh.sh_alen <- 0;
  Array.fill sh.sh_buckets 0 (Array.length sh.sh_buckets) [];
  sh.sh_vmin <- -1;
  sh.sh_crashed_live <- 0;
  sh.sh_compact <- false;
  sh.sh_hit <- false;
  sh.sh_always_dirty <- false;
  sh.sh_always_unsorted <- false;
  sh.sh_vnode <- -1;
  sh.sh_vprio <- 0;
  sh.sh_vexn <- None;
  sh.sh_ev_len <- 0;
  sh.sh_em.Emit.eopen <- false;
  sh.sh_ib.Inbox.fill_node <- -1

(* In-place heapsort of [a.(0) .. a.(len-1)]: the frontier must be stepped
   in ascending node id (the reference's visiting order), and its three
   sources — timer buckets, receiver stack, always-list — append out of
   order.  Heapsort keeps the cost a guaranteed O(f log f) with zero
   allocation. *)
let sort_prefix a len =
  if len > 1 then begin
    let sift root stop =
      let r = ref root in
      let continue = ref true in
      while !continue do
        let child = (2 * !r) + 1 in
        if child >= stop then continue := false
        else begin
          let c = if child + 1 < stop && a.(child + 1) > a.(child) then child + 1 else child in
          if a.(c) > a.(!r) then begin
            let tmp = a.(c) in
            a.(c) <- a.(!r);
            a.(!r) <- tmp;
            r := c
          end
          else continue := false
        end
      done
    in
    for root = (len / 2) - 1 downto 0 do
      sift root len
    done;
    for stop = len - 1 downto 1 do
      let tmp = a.(0) in
      a.(0) <- a.(stop);
      a.(stop) <- tmp;
      sift 0 stop
    done
  end

let exec_rounds ~max_rounds ~max_words ~sink ~degrade ~churn ~guard ~corrupt e
    plan algo =
  let n = e.n in
  let g = e.g in
  let shards = plan.p_shards and d = plan.p_domains in
  let shard_of = plan.p_shard_of and local = plan.p_local and xas = plan.p_xas in
  let solo = d = 1 in
  let home = shards.(0) in
  let shard_for v = if solo then home else shards.(shard_of.(v)) in
  let stride = stride_for ~guard ~max_words () in
  ensure_arena home.sh_a ~ports:e.ports ~stride;
  ensure_arena home.sh_b ~ports:e.ports ~stride;
  if e.dirty then
    (* a previous run aborted mid-round (violation / limit): the frames
       and counts it left in the shared arrays must not leak into this
       one *)
    List.iter
      (fun b ->
        Array.fill b.wire 0 (Array.length b.wire) (-1);
        Array.fill b.count 0 (Array.length b.count) 0)
      [ home.sh_a; home.sh_b ];
  Array.iter
    (fun sh -> reset_shard sh ~data_a:home.sh_a.data ~data_b:home.sh_b.data)
    shards;
  Array.iter (Array.iter (fun xa -> xa.x_len <- 0)) xas;
  e.running <- true;
  e.dirty <- true;
  let a_halted = algo.ehalted and a_wake = algo.ewake in
  let states = Array.init n (fun v -> algo.einit g v) in
  let is_live = e.is_live and is_always = e.is_always in
  let wake_at = e.wake_at and fstamp = e.fstamp in
  Array.fill fstamp 0 (Array.length fstamp) (-1);
  Array.fill wake_at 0 (Array.length wake_at) (-1);
  let xpush xa slot =
    let cap = Array.length xa.x_slot in
    if xa.x_len = cap then begin
      let ncap = max 8 (2 * cap) in
      let ns = Array.make ncap 0 in
      Array.blit xa.x_slot 0 ns 0 cap;
      xa.x_slot <- ns
    end;
    xa.x_slot.(xa.x_len) <- slot;
    xa.x_len <- xa.x_len + 1
  in
  let instrumented = sink != Sink.null in
  let evpush sh src dst w =
    let cap = Array.length sh.sh_ev_src in
    if sh.sh_ev_len = cap then begin
      let ncap = max 16 (2 * cap) in
      let a = Array.make ncap 0 and b = Array.make ncap 0 and c = Array.make ncap 0 in
      Array.blit sh.sh_ev_src 0 a 0 cap;
      Array.blit sh.sh_ev_dst 0 b 0 cap;
      Array.blit sh.sh_ev_w 0 c 0 cap;
      sh.sh_ev_src <- a;
      sh.sh_ev_dst <- b;
      sh.sh_ev_w <- c
    end;
    sh.sh_ev_src.(sh.sh_ev_len) <- src;
    sh.sh_ev_dst.(sh.sh_ev_len) <- dst;
    sh.sh_ev_w.(sh.sh_ev_len) <- w;
    sh.sh_ev_len <- sh.sh_ev_len + 1
  in
  let round = ref 0 in
  (* one shard emits in ascending source id already: dispatch inline *)
  let message sh ~src ~dst ~words =
    if solo then sink.on_message ~round:!round ~src ~dst ~words
    else evpush sh src dst words
  in
  (* replay deferred on_message events in ascending source id.
     [limit]/[owner] truncate the replay to what an ascending sweep
     emitted before raising at node [limit]: everything from sources
     below it, plus the violating shard's own events at the violating
     node. *)
  let emit_events ~round ~limit ~owner =
    let idx = Array.make d 0 in
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_src = ref max_int in
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        if idx.(s) < sh.sh_ev_len then begin
          let src = sh.sh_ev_src.(idx.(s)) in
          if (src < limit || (src = limit && s = owner)) && src < !best_src
          then begin
            best := s;
            best_src := src
          end
        end
      done;
      if !best < 0 then continue := false
      else begin
        let sh = shards.(!best) in
        let i = idx.(!best) in
        sink.on_message ~round ~src:sh.sh_ev_src.(i) ~dst:sh.sh_ev_dst.(i)
          ~words:sh.sh_ev_w.(i);
        idx.(!best) <- i + 1
      end
    done
  in
  (* Hoisted churn views: the empty arrays are never indexed (short-circuit
     on [churn_on]), so the no-churn send path costs one extra branch. *)
  let churn_edge_down, churn_crashed, churn_dormant =
    match churn with
    | Some (c : Churn.t) ->
      (c.Churn.edge_down, c.Churn.crashed, c.Churn.dormant)
    | None -> ([||], [||], [||])
  in
  let churn_on = churn <> None in
  (* Initial liveness.  Every node starts in Always mode: hints are
     consulted only after a step, and round 0 (the init round) steps every
     live node regardless. *)
  for v = 0 to n - 1 do
    if (not (a_halted states.(v))) && not (churn_on && churn_dormant.(v))
    then begin
      let sh = shard_for v in
      is_live.(v) <- true;
      is_always.(v) <- true;
      sh.sh_live.(sh.sh_live_len) <- v;
      sh.sh_live_len <- sh.sh_live_len + 1
    end
    else begin
      is_live.(v) <- false;
      is_always.(v) <- false
    end
  done;
  (* Serially-written controls read by the phase bodies.  [hinted] stays
     false, and every live node steps every round, until some step
     returns a non-Always hint. *)
  let hinted = ref false in
  let transition = ref false in
  let trans_flag = ref false in
  let dense_flag = ref true in
  let vmin_flag = ref (-1) in
  let messages = ref 0 and max_inflight = ref 0 in
  let live_total = ref 0 in
  Array.iter (fun sh -> live_total := !live_total + sh.sh_live_len) shards;
  let pending_next = ref 0 in
  let schedule sh v k =
    wake_at.(v) <- k;
    let len = Array.length sh.sh_buckets in
    if k >= len then begin
      let b = Array.make (max (k + 1) (2 * len)) [] in
      Array.blit sh.sh_buckets 0 b 0 len;
      sh.sh_buckets <- b
    end;
    sh.sh_buckets.(k) <- v :: sh.sh_buckets.(k)
  in
  let apply_wake sh v st r =
    match a_wake st with
    | Always ->
      if not is_always.(v) then begin
        is_always.(v) <- true;
        sh.sh_always.(sh.sh_alen) <- v;
        sh.sh_alen <- sh.sh_alen + 1;
        sh.sh_always_unsorted <- true
      end;
      wake_at.(v) <- -1
    | hint ->
      sh.sh_hinted <- true;
      if is_always.(v) then begin
        is_always.(v) <- false;
        sh.sh_always_dirty <- true
      end;
      (match hint with
      | Next -> schedule sh v (r + 1)
      | At k -> if k > r then schedule sh v k else wake_at.(v) <- -1
      | OnMessage -> wake_at.(v) <- -1
      | Always -> assert false)
  in
  (* A shard's first violation is recorded and the shard stops: the
     caller raises the returned [Stop_shard] itself, so the hot loops see
     a raise, after which nothing stays live, rather than a call. *)
  let record sh v prio exn =
    sh.sh_vnode <- v;
    sh.sh_vprio <- prio;
    sh.sh_vexn <- Some exn;
    Stop_shard
  in
  let duplicate sh v u =
    record sh v 1
      (Congestion_violation
         (Printf.sprintf "round %d: node %d sent twice over edge to %d" !round
            v u))
  in
  (* The send path: one reusable emitter per shard whose start/commit
     write the frame straight into the shared send arena, at the slot its
     sender uniquely owns.  [start] checks, in order, non-neighbor,
     churn-dead and duplicate edge (a published slot has wire >= 0 until
     its receiver clears it); width is enforced by the writer budget as
     the frame is built; [commit] publishes the slot.  A frame to another
     shard is published by slot number only: the receiver's shard does
     the receiver-side bookkeeping at the exchange. *)
  Array.iteri
    (fun s sh ->
      let em = sh.sh_em in
      em.Emit.estart <-
        (fun t u ->
          if t.Emit.eopen then
            invalid_arg "Engine.Emit.start: frame already open";
          let v = t.Emit.enode in
          let slot = find_port e ~src:v ~dst:u in
          if slot < 0 then
            raise
              (record sh v 1
                 (Congestion_violation
                    (Printf.sprintf "round %d: node %d sent to non-neighbor %d"
                       !round v u)));
          let sd = sh.sh_send in
          if
            churn_on
            && (churn_edge_down.(slot) || churn_crashed.(u)
               || churn_dormant.(u))
          then
            (* frame onto a dead port or to a crashed node: build it (the
               width budget still applies) but never publish the slot *)
            t.Emit.edead <- true
          else begin
            if sd.wire.(slot) >= 0 then raise (duplicate sh v u);
            t.Emit.edead <- false
          end;
          t.Emit.edst <- u;
          t.Emit.eslot <- slot;
          t.Emit.eopen <- true;
          Codec.attach_writer ~guard t.Emit.ew sd.data ~base:(slot * stride)
            ~budget:max_words;
          t.Emit.ew);
      em.Emit.ecommit <-
        (fun t ->
          if not t.Emit.eopen then
            invalid_arg "Engine.Emit.commit: no open frame";
          t.Emit.eopen <- false;
          if t.Emit.edead then sh.sh_send_dropped <- sh.sh_send_dropped + 1
          else begin
            let sd = sh.sh_send in
            let slot = t.Emit.eslot and u = t.Emit.edst in
            let w = Codec.words t.Emit.ew and wire = Codec.seal t.Emit.ew in
            sd.wire.(slot) <- wire;
            sd.wlog.(slot) <- w;
            if solo || shard_of.(u) = s then begin
              sd.written.(sd.wlen) <- slot;
              sd.wlen <- sd.wlen + 1;
              if sd.count.(u) = 0 then begin
                sd.active.(sd.alen) <- u;
                sd.alen <- sd.alen + 1
              end;
              sd.count.(u) <- sd.count.(u) + 1;
              sd.total <- sd.total + 1;
              sd.words <- sd.words + w;
              sd.bits <- sd.bits + (word_bits * wire)
            end
            else xpush xas.(s).(shard_of.(u)) slot;
            if instrumented then message sh ~src:t.Emit.enode ~dst:u ~words:w
          end);
      (* Broadcast fast path: encode the one-word frame once into a
         scratch region, then walk the sender's contiguous out-port
         segment directly — no per-neighbor binary search, no per-frame
         start/commit pair. *)
      let bscratch =
        Bytes.create (2 * (Codec.max_wire_words + Codec.guard_words))
      in
      (* Broadcast memo: consecutive [broadcast1] calls with the same value
         re-use the encoded scratch frame, so a flood round encodes (and
         CRCs, when the guard is on) once per shard instead of n times.
         Nothing else writes [bscratch], so the memo never goes stale. *)
      let bmemo_live = ref false and bmemo_a = ref 0 and bmemo_wire = ref 0 in
      em.Emit.ebroadcast1 <-
        (fun t a ->
          if t.Emit.eopen then
            invalid_arg "Engine.Emit.broadcast1: frame already open";
          let v = t.Emit.enode in
          if max_words < 1 then
            raise
              (record sh v 1
                 (Congestion_violation
                    (Printf.sprintf
                       "round %d: node %d payload of %d words exceeds %d"
                       !round v 1 max_words)));
          let wire =
            if !bmemo_live && !bmemo_a = a then !bmemo_wire
            else begin
              let w =
                if guard then Codec.encode1_guarded bscratch ~base:0 a
                else Codec.encode1 bscratch ~base:0 a
              in
              bmemo_live := true;
              bmemo_a := a;
              bmemo_wire := w;
              w
            end
          in
          let sd = sh.sh_send in
          let first = e.out_off.(v) and stop = e.out_off.(v + 1) in
          if
            (not churn_on) && (not instrumented)
            && (solo || Bytes.get local v <> '\000')
          then begin
            (* The lean loops: every neighbor is live and in this shard,
               so every slot of the range is written and lands here.
               Arrays are hoisted into locals (without flambda every
               [sd.field.(slot)] reloads the field inside the loop), the
               [written] cursor is [wbase + slot] (a loop-carried ref
               would be a per-step allocation), and the totals are
               batched after the loop. *)
            let data = sd.data
            and swire = sd.wire
            and swlog = sd.wlog
            and written = sd.written
            and count = sd.count
            and active = sd.active
            and out_dst = e.out_dst in
            let wbase = sd.wlen - first in
            if wire = 1 then begin
              (* a small value is one u16 store plus the minimum
                 bookkeeping *)
              let g = Bytes.get_uint16_le bscratch 0 in
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (duplicate sh v u);
                Bytes.set_uint16_le data (slot * stride) g;
                swire.(slot) <- 1;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(sd.alen) <- u;
                  sd.alen <- sd.alen + 1
                end;
                count.(u) <- c + 1
              done
            end
            else if wire = 2 then begin
              (* a one-word value plus its CRC guard word is exactly one
                 32-bit store — the stride is always at least
                 [2 * max_wire_words] bytes, so the wide store stays
                 inside the slot's frame region *)
              let g = Bytes.get_int32_le bscratch 0 in
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (duplicate sh v u);
                Bytes.set_int32_le data (slot * stride) g;
                swire.(slot) <- 2;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(sd.alen) <- u;
                  sd.alen <- sd.alen + 1
                end;
                count.(u) <- c + 1
              done
            end
            else
              for slot = first to stop - 1 do
                let u = out_dst.(slot) in
                if swire.(slot) >= 0 then raise (duplicate sh v u);
                Bytes.blit bscratch 0 data (slot * stride) (2 * wire);
                swire.(slot) <- wire;
                swlog.(slot) <- 1;
                written.(wbase + slot) <- slot;
                let c = count.(u) in
                if c = 0 then begin
                  active.(sd.alen) <- u;
                  sd.alen <- sd.alen + 1
                end;
                count.(u) <- c + 1
              done;
            let sent = stop - first in
            sd.wlen <- sd.wlen + sent;
            sd.total <- sd.total + sent;
            sd.words <- sd.words + sent;
            sd.bits <- sd.bits + (word_bits * wire * sent)
          end
          else
            (* per-slot accounting: dead ports send nothing, cross-shard
               slots are published by number, and the sink sees each
               frame *)
            for slot = first to stop - 1 do
              let u = e.out_dst.(slot) in
              if
                churn_on
                && (churn_edge_down.(slot) || churn_crashed.(u)
                   || churn_dormant.(u))
              then sh.sh_send_dropped <- sh.sh_send_dropped + 1
              else begin
                if sd.wire.(slot) >= 0 then raise (duplicate sh v u);
                if wire = 1 then
                  Bytes.set_uint16_le sd.data (slot * stride)
                    (Bytes.get_uint16_le bscratch 0)
                else Bytes.blit bscratch 0 sd.data (slot * stride) (2 * wire);
                sd.wire.(slot) <- wire;
                sd.wlog.(slot) <- 1;
                if solo || shard_of.(u) = s then begin
                  sd.written.(sd.wlen) <- slot;
                  sd.wlen <- sd.wlen + 1;
                  if sd.count.(u) = 0 then begin
                    sd.active.(sd.alen) <- u;
                    sd.alen <- sd.alen + 1
                  end;
                  sd.count.(u) <- sd.count.(u) + 1;
                  sd.total <- sd.total + 1;
                  sd.words <- sd.words + 1;
                  sd.bits <- sd.bits + (word_bits * wire)
                end
                else xpush xas.(s).(shard_of.(u)) slot;
                if instrumented then message sh ~src:v ~dst:u ~words:1
              end
            done))
    shards;
  (* step phase: step this shard's frontier for round [!round], then clear
     what it was delivered *)
  let phase_step s =
    let sh = shards.(s) in
    let r = !round in
    let v_min = !vmin_flag in
    let dv = sh.sh_recv in
    Inbox.attach sh.sh_ib ~data:dv.data ~wire:dv.wire ~wlog:dv.wlog ~stride;
    sh.sh_stepped <- 0;
    sh.sh_woken <- 0;
    sh.sh_send_dropped <- 0;
    sh.sh_hinted <- false;
    sh.sh_ev_len <- 0;
    if !trans_flag then begin
      (* first non-Always hint last round: seed the Always set from the
         live list (ascending, so it starts sorted) *)
      sh.sh_alen <- 0;
      for i = 0 to sh.sh_live_len - 1 do
        let v = sh.sh_live.(i) in
        if is_always.(v) then begin
          sh.sh_always.(sh.sh_alen) <- v;
          sh.sh_alen <- sh.sh_alen + 1
        end
      done;
      sh.sh_always_dirty <- false;
      sh.sh_always_unsorted <- false
    end;
    let step_node v =
      if v_min >= 0 && v_min < v then
        raise
          (record sh v 0
             (Congestion_violation
                (Printf.sprintf "round %d: halted node %d received a message"
                   r v_min)));
      (* mark the inbox for a lazy fill: the in-port scan runs only if the
         kernel touches its mail this step *)
      let ib = sh.sh_ib in
      ib.Inbox.len <- 0;
      ib.Inbox.fill_node <- v;
      let em = sh.sh_em in
      em.Emit.enode <- v;
      let st =
        try algo.estep g ~round:r ~node:v states.(v) ib em
        with
        | Stop_shard as exn -> raise exn
        | Codec.Width_exceeded { budget; words } ->
          raise
            (record sh v 1
               (Congestion_violation
                  (Printf.sprintf
                     "round %d: node %d payload of %d words exceeds %d" r v
                     words budget)))
        | exn -> raise (record sh v 1 exn)
      in
      if em.Emit.eopen then begin
        em.Emit.eopen <- false;
        raise
          (record sh v 1
             (Invalid_argument "Engine.Emit: frame left open at end of step"))
      end;
      states.(v) <- st;
      if a_halted st then begin
        is_live.(v) <- false;
        sh.sh_compact <- true;
        if is_always.(v) then begin
          is_always.(v) <- false;
          sh.sh_always_dirty <- true
        end;
        wake_at.(v) <- -1
      end
      else if not degrade then apply_wake sh v st r
    in
    (try
       if !dense_flag then begin
         (* dense path: every live node steps (the guard only skips nodes
            churn crashed before compaction) *)
         sh.sh_stepped <- sh.sh_live_len - sh.sh_crashed_live;
         for i = 0 to sh.sh_live_len - 1 do
           let v = sh.sh_live.(i) in
           if is_live.(v) then step_node v
         done
       end
       else begin
         (* sparse path: frontier = valid timer wake-ups + receivers + the
            Always set, stepped in ascending node id *)
         let plen = ref 0 in
         let push v =
           if fstamp.(v) <> r then begin
             fstamp.(v) <- r;
             sh.sh_frontier.(!plen) <- v;
             incr plen
           end
         in
         if r < Array.length sh.sh_buckets then begin
           let fired = sh.sh_buckets.(r) in
           sh.sh_buckets.(r) <- [];
           List.iter
             (fun v ->
               (* lazy invalidation: a rescheduled or cancelled wake leaves
                  a stale entry behind; only the latest hint counts *)
               if wake_at.(v) = r then begin
                 wake_at.(v) <- -1;
                 if is_live.(v) then begin
                   sh.sh_woken <- sh.sh_woken + 1;
                   push v
                 end
               end)
             fired
         end;
         for i = 0 to dv.alen - 1 do
           let v = dv.active.(i) in
           (* the count guard matters only under churn: a receiver whose
              whole inbox was churned away is not woken *)
           if is_live.(v) && dv.count.(v) > 0 then push v
         done;
         for i = 0 to sh.sh_alen - 1 do
           push sh.sh_always.(i)
         done;
         sort_prefix sh.sh_frontier !plen;
         sh.sh_stepped <- !plen;
         for i = 0 to !plen - 1 do
           step_node sh.sh_frontier.(i)
         done
       end
     with Stop_shard -> ());
    if sh.sh_vnode < 0 then begin
      (* receivers / delivered words before clearing; a receiver whose
         whole inbox was dropped in flight received nothing *)
      sh.sh_receivers <-
        (if sh.sh_hit then begin
           let c = ref 0 in
           for i = 0 to dv.alen - 1 do
             if dv.count.(dv.active.(i)) > 0 then incr c
           done;
           !c
         end
         else dv.alen);
      sh.sh_delivered_words <- dv.words;
      sh.sh_delivered_bits <- dv.bits;
      for j = 0 to dv.wlen - 1 do
        dv.wire.(dv.written.(j)) <- -1
      done;
      for i = 0 to dv.alen - 1 do
        dv.count.(dv.active.(i)) <- 0
      done;
      dv.wlen <- 0;
      dv.alen <- 0;
      dv.total <- 0;
      dv.words <- 0;
      dv.bits <- 0;
      if sh.sh_compact then begin
        (* stable compaction keeps the live list ascending *)
        let w = ref 0 in
        for i = 0 to sh.sh_live_len - 1 do
          let v = sh.sh_live.(i) in
          if is_live.(v) then begin
            sh.sh_live.(!w) <- v;
            incr w
          end
        done;
        sh.sh_live_len <- !w;
        sh.sh_compact <- false
      end;
      if (not !trans_flag) && (sh.sh_always_dirty || sh.sh_always_unsorted)
      then begin
        let w = ref 0 in
        for i = 0 to sh.sh_alen - 1 do
          let v = sh.sh_always.(i) in
          if is_live.(v) && is_always.(v) then begin
            sh.sh_always.(!w) <- v;
            incr w
          end
        done;
        sh.sh_alen <- !w;
        if sh.sh_always_unsorted then sort_prefix sh.sh_always sh.sh_alen;
        sh.sh_always_dirty <- false;
        sh.sh_always_unsorted <- false
      end
    end
  in
  (* exchange phase: drain the cross-shard lists addressed to this shard,
     in src-shard order, into its send buffer; then compute the
     halted-receiver candidate the next round's serial section needs *)
  let phase_exchange t =
    let sh = shards.(t) in
    let sd = sh.sh_send in
    for s = 0 to d - 1 do
      let xa = xas.(s).(t) in
      for i = 0 to xa.x_len - 1 do
        let slot = xa.x_slot.(i) in
        let u = e.out_dst.(slot) in
        sd.written.(sd.wlen) <- slot;
        sd.wlen <- sd.wlen + 1;
        if sd.count.(u) = 0 then begin
          sd.active.(sd.alen) <- u;
          sd.alen <- sd.alen + 1
        end;
        sd.count.(u) <- sd.count.(u) + 1;
        sd.total <- sd.total + 1;
        sd.words <- sd.words + sd.wlog.(slot);
        sd.bits <- sd.bits + (word_bits * sd.wire.(slot))
      done;
      xa.x_len <- 0
    done;
    sh.sh_vmin <- -1;
    for i = 0 to sd.alen - 1 do
      let v = sd.active.(i) in
      if (not is_live.(v)) && sd.count.(v) > 0
         && (sh.sh_vmin < 0 || v < sh.sh_vmin)
      then sh.sh_vmin <- v
    done
  in
  let body pool =
    while !live_total > 0 || !pending_next > 0 do
      if !round > max_rounds then raise (Round_limit_exceeded !round);
      Array.iter
        (fun sh ->
          let b = sh.sh_recv in
          sh.sh_recv <- sh.sh_send;
          sh.sh_send <- b)
        shards;
      let r = !round in
      (* the delivery side's shared arrays *)
      let ddata = home.sh_recv.data in
      let dwire = home.sh_recv.wire in
      let dwlog = home.sh_recv.wlog in
      let dcount = home.sh_recv.count in
      (* Apply the churn events due this round before anything is
         delivered: a node crashing at round r does not execute round r
         and the frames already in flight to it (sent at r-1) are lost; an
         edge going down at round r loses the frame it was carrying.
         Frames a node sent before its crash are still delivered — the
         crash kills the processor, not the wires.  Churn is applied
         serially: it is rare, touches arbitrary shards, and must be
         globally ordered before the halted-receiver minimum. *)
      let churn_dropped = ref 0 in
      let newly_crashed = ref 0 in
      let newly_arrived = ref 0 in
      let newly_departed = ref 0 in
      let newly_inserted = ref 0 in
      let churn_applied = ref false in
      let live_unsorted = ref false in
      Array.iter
        (fun sh ->
          sh.sh_crashed_live <- 0;
          sh.sh_hit <- false)
        shards;
      (match churn with
      | Some c ->
        let len = Array.length c.Churn.ops in
        let kill v =
          let sh = shard_for v in
          let dv = sh.sh_recv in
          if dcount.(v) > 0 then begin
            for j = e.out_off.(v) to e.out_off.(v + 1) - 1 do
              let slot = e.rev_slot.(j) in
              let wv = dwire.(slot) in
              if wv >= 0 then begin
                dwire.(slot) <- -1;
                dv.total <- dv.total - 1;
                dv.words <- dv.words - dwlog.(slot);
                dv.bits <- dv.bits - (word_bits * wv);
                incr churn_dropped
              end
            done;
            dcount.(v) <- 0;
            sh.sh_hit <- true
          end;
          if is_live.(v) then begin
            is_live.(v) <- false;
            sh.sh_crashed_live <- sh.sh_crashed_live + 1;
            sh.sh_compact <- true;
            if is_always.(v) then begin
              is_always.(v) <- false;
              sh.sh_always_dirty <- true
            end;
            wake_at.(v) <- -1
          end
        in
        while
          c.Churn.cursor < len
          && Churn.round_of c.Churn.events.(c.Churn.cursor) <= r
        do
          churn_applied := true;
          (match c.Churn.ops.(c.Churn.cursor) with
          | Churn.Op_crash v ->
            if not c.Churn.crashed.(v) then begin
              c.Churn.crashed.(v) <- true;
              incr newly_crashed;
              kill v
            end
          | Churn.Op_depart v ->
            (* a graceful departure is mechanically a fail-stop — the node
               leaves without ceremony — but accounted separately *)
            if not c.Churn.crashed.(v) then begin
              c.Churn.crashed.(v) <- true;
              incr newly_departed;
              kill v
            end
          | Churn.Op_arrive v ->
            if c.Churn.dormant.(v) then begin
              c.Churn.dormant.(v) <- false;
              incr newly_arrived;
              if (not c.Churn.crashed.(v)) && not (a_halted states.(v))
              then begin
                (* the arrival round steps the node unconditionally, like
                   the init round steps every live node: it enters Always
                   mode until its own first hint says otherwise *)
                let sh = shard_for v in
                is_live.(v) <- true;
                sh.sh_live.(sh.sh_live_len) <- v;
                sh.sh_live_len <- sh.sh_live_len + 1;
                live_unsorted := true;
                is_always.(v) <- true;
                if !hinted then begin
                  sh.sh_always.(sh.sh_alen) <- v;
                  sh.sh_alen <- sh.sh_alen + 1;
                  sh.sh_always_unsorted <- true
                end
              end
            end
          | Churn.Op_down slot ->
            if not c.Churn.edge_down.(slot) then begin
              c.Churn.edge_down.(slot) <- true;
              let wv = dwire.(slot) in
              if wv >= 0 then begin
                let u = e.out_dst.(slot) in
                let sh = shard_for u in
                let dv = sh.sh_recv in
                dwire.(slot) <- -1;
                dv.total <- dv.total - 1;
                dv.words <- dv.words - dwlog.(slot);
                dv.bits <- dv.bits - (word_bits * wv);
                dcount.(u) <- dcount.(u) - 1;
                incr churn_dropped;
                sh.sh_hit <- true
              end
            end
          | Churn.Op_add slot ->
            (* reserved capacity coming online: the slot was pre-downed at
               reset, nothing can be in flight through it *)
            if c.Churn.edge_down.(slot) then begin
              c.Churn.edge_down.(slot) <- false;
              incr newly_inserted
            end
          | Churn.Op_up slot -> c.Churn.edge_down.(slot) <- false);
          c.Churn.cursor <- c.Churn.cursor + 1
        done;
        if !live_unsorted then
          Array.iter (fun sh -> sort_prefix sh.sh_live sh.sh_live_len) shards
      | None -> ());
      (* Deterministic wire corruption: a serial pass over the delivered
         slots, after churn (a frame churn killed cannot also be
         corrupted) and before the halted-receiver minimum (a corrupted
         frame to a halted node is dropped, never delivered).  Every
         decision is a pure (cseed, round, slot, lane) hash, so the pass
         is iteration-order-free, and each kill touches only the
         receiver's shard. *)
      let corrupt_dropped = ref 0 in
      (match corrupt with
      | Some (cs : Corrupt.spec) ->
        let inten = Corrupt.intensity cs ~round:r in
        let fthr = Corrupt.threshold (cs.Corrupt.flip *. inten) in
        let tthr = Corrupt.threshold (cs.Corrupt.truncate *. inten) in
        if fthr > 0 || tthr > 0 then begin
          let cseed = cs.Corrupt.cseed and burst = cs.Corrupt.burst in
          let tally = cs.Corrupt.tally in
          Array.iter
            (fun sh ->
              let dv = sh.sh_recv in
              for j = 0 to dv.wlen - 1 do
                let slot = dv.written.(j) in
                let wv = dwire.(slot) in
                if wv >= 0 then begin
                  let kill () =
                    dwire.(slot) <- -1;
                    dv.total <- dv.total - 1;
                    dv.words <- dv.words - dwlog.(slot);
                    dv.bits <- dv.bits - (word_bits * wv);
                    dcount.(e.out_dst.(slot)) <- dcount.(e.out_dst.(slot)) - 1;
                    sh.sh_hit <- true;
                    incr corrupt_dropped
                  in
                  let h0 = Corrupt.decide ~cseed ~round:r ~slot ~lane:0 in
                  if tthr > 0 && Corrupt.hit h0 tthr && wv > 1 then begin
                    (* truncation shortens the frame below what its
                       logical words need: the decoder would raise
                       Truncated_frame, so it is always detected — drop
                       at the recv path *)
                    tally.Corrupt.injected <- tally.Corrupt.injected + 1;
                    tally.Corrupt.truncated <- tally.Corrupt.truncated + 1;
                    kill ()
                  end
                  else if fthr > 0 then begin
                    let base = slot * stride in
                    let hitany = ref false in
                    for i = 0 to wv - 1 do
                      let h =
                        Corrupt.decide ~cseed ~round:r ~slot ~lane:(i + 1)
                      in
                      if Corrupt.hit h fthr then begin
                        hitany := true;
                        let stop = min (i + burst - 1) (wv - 1) in
                        for jj = i to stop do
                          let hm =
                            if jj = i then h
                            else
                              Corrupt.decide ~cseed ~round:r ~slot
                                ~lane:(wv + 1 + jj)
                          in
                          let off = base + (2 * jj) in
                          Bytes.set_uint16_le ddata off
                            (Bytes.get_uint16_le ddata off
                            lxor Corrupt.mask hm)
                        done
                      end
                    done;
                    if !hitany then begin
                      tally.Corrupt.injected <- tally.Corrupt.injected + 1;
                      let clean =
                        Codec.verify ddata ~base ~wire:wv
                        && Codec.well_formed ddata ~base
                             ~wire:(wv - Codec.guard_words)
                             ~words:dwlog.(slot)
                      in
                      if not clean then begin
                        tally.Corrupt.detected <- tally.Corrupt.detected + 1;
                        kill ()
                      end
                    end
                  end
                end
              done)
            shards
        end
      | None -> ());
      let this_round = ref 0 in
      let live_snapshot = ref 0 in
      Array.iter
        (fun sh ->
          this_round := !this_round + sh.sh_recv.total;
          live_snapshot := !live_snapshot + sh.sh_live_len - sh.sh_crashed_live)
        shards;
      max_inflight := max !max_inflight !this_round;
      messages := !messages + !this_round;
      (* The reference semantics raise at the first offending node in id
         order; a halted receiver competes with live-node send violations.
         [v_min] is the smallest halted node holding undeliverable mail. *)
      let v_min = ref (-1) in
      if !churn_applied || !corrupt_dropped > 0 then
        (* drops can only remove candidates, but removing the minimum
           exposes the next one: recompute from the surviving counts *)
        Array.iter
          (fun sh ->
            let dv = sh.sh_recv in
            for i = 0 to dv.alen - 1 do
              let v = dv.active.(i) in
              if (not is_live.(v)) && dcount.(v) > 0
                 && (!v_min < 0 || v < !v_min)
              then v_min := v
            done)
          shards
      else
        Array.iter
          (fun sh ->
            if sh.sh_vmin >= 0 && (!v_min < 0 || sh.sh_vmin < !v_min) then
              v_min := sh.sh_vmin)
          shards;
      vmin_flag := !v_min;
      dense_flag := not !hinted;
      trans_flag := !transition;
      transition := false;
      Pool.run pool phase_step;
      (* violation resolution: the lexicographically smallest (node,
         priority) is the one an ascending sweep raises first *)
      let vs = ref (-1) in
      for s = 0 to d - 1 do
        let sh = shards.(s) in
        if sh.sh_vnode >= 0
           && (!vs < 0
              || sh.sh_vnode < shards.(!vs).sh_vnode
              || (sh.sh_vnode = shards.(!vs).sh_vnode
                 && sh.sh_vprio < shards.(!vs).sh_vprio))
        then vs := s
      done;
      if !vs >= 0 then begin
        let sh = shards.(!vs) in
        if instrumented then
          emit_events ~round:r ~limit:sh.sh_vnode ~owner:!vs;
        raise (Option.get sh.sh_vexn)
      end;
      if !v_min >= 0 then begin
        if instrumented then emit_events ~round:r ~limit:max_int ~owner:(-1);
        raise
          (Congestion_violation
             (Printf.sprintf "round %d: halted node %d received a message" r
                !v_min))
      end;
      if not !hinted then
        Array.iter
          (fun sh ->
            if sh.sh_hinted then begin
              hinted := true;
              transition := true
            end)
          shards;
      if instrumented then emit_events ~round:r ~limit:max_int ~owner:(-1);
      Pool.run pool phase_exchange;
      pending_next := 0;
      live_total := 0;
      Array.iter
        (fun sh ->
          pending_next := !pending_next + sh.sh_send.total;
          live_total := !live_total + sh.sh_live_len)
        shards;
      if instrumented then begin
        (* merge the per-shard counters with the associative combine; the
           whole-round fields (delivered, sent, skipped, churn drops,
           crashes) are patched in from the serial sections' global
           view *)
        let acc = ref (Sink.empty_round_info r) in
        Array.iter
          (fun sh ->
            acc :=
              Sink.combine_round_info !acc
                {
                  (Sink.empty_round_info r) with
                  Sink.delivered_words = sh.sh_delivered_words;
                  delivered_bits = sh.sh_delivered_bits;
                  receivers = sh.sh_receivers;
                  stepped = sh.sh_stepped;
                  woken = sh.sh_woken;
                  dropped = sh.sh_send_dropped;
                })
          shards;
        let agg = !acc in
        sink.on_round
          {
            agg with
            Sink.delivered = !this_round;
            skipped = !live_snapshot - agg.Sink.stepped;
            sent = !pending_next;
            dropped = agg.Sink.dropped + !churn_dropped;
            corrupted = !corrupt_dropped;
            crashed = !newly_crashed;
            arrived = !newly_arrived;
            departed = !newly_departed;
            inserted = !newly_inserted;
          }
      end;
      incr round
    done
  in
  Pool.with_pool ~domains:d body;
  e.running <- false;
  e.dirty <- false;
  if instrumented then sink.on_finish ();
  (states, { rounds = !round; messages = !messages; max_inflight = !max_inflight })

(* When [exec_emit] is called without [?domains] this reference supplies
   the default — the hook [kdom_cli --domains] threads parallelism through
   composite algorithms whose inner [Engine.run_emit] calls cannot be
   reached syntactically.  Every domain count gives the same result. *)
let default_domains = ref 1

let exec_emit ?max_rounds ?max_words ?(sink = Sink.null) ?(degrade = false)
    ?churn ?(guard = false) ?corrupt ?domains ?partition e algo =
  if e.running then
    invalid_arg "Engine.exec: engine already running (re-entrant call)";
  let domains = match domains with Some d -> d | None -> !default_domains in
  if domains < 1 then invalid_arg "Engine.exec: domains < 1";
  (match churn with
  | Some (c : Churn.t) ->
    if Array.length c.Churn.crashed <> max 1 e.n
       || Array.length c.Churn.edge_down <> max 1 e.ports
    then invalid_arg "Engine.exec: churn compiled against a different engine";
    Churn.reset c
  | None -> ());
  (match corrupt with
  | Some (cs : Corrupt.spec) ->
    Corrupt.validate cs;
    cs.Corrupt.tally.Corrupt.injected <- 0;
    cs.Corrupt.tally.Corrupt.detected <- 0;
    cs.Corrupt.tally.Corrupt.truncated <- 0
  | None -> ());
  let plan = plan_for e ~domains partition in
  (* corruption is only detectable with the guard word on every frame *)
  let guard = guard || corrupt <> None in
  let max_rounds =
    match max_rounds with Some r -> r | None -> default_max_rounds e.n
  in
  let max_words =
    match max_words with Some w -> w | None -> default_max_words e.n
  in
  (* clear [running] on abnormal exit so the engine stays usable; [dirty]
     stays set, forcing an arena scrub on the next exec *)
  try
    exec_rounds ~max_rounds ~max_words ~sink ~degrade ~churn ~guard ~corrupt e
      plan algo
  with exn ->
    e.running <- false;
    raise exn


let run_emit ?max_rounds ?max_words ?sink ?degrade ?churn ?guard ?corrupt
    ?domains ?partition g algo =
  exec_emit ?max_rounds ?max_words ?sink ?degrade ?churn ?guard ?corrupt
    ?domains ?partition (create g) algo

(* Step one node outside any executor: a private emitter whose writer is
   in scratch mode collects the frames as boxed [(dst, payload)] pairs, in
   the order the step emitted them.  This is how the reference simulator
   and the asynchronous executors, which deliver boxed payloads, run the
   one algorithm shape.  The writer enforces [max_words] at the same put
   the engine's arena writer would, so a width violation surfaces as the
   same [Codec.Width_exceeded]; the caller words the violation.  Neighbor
   and duplicate-edge checks are left to the caller, which owns the port
   map.  The emitter is step-local, so this allocates per frame. *)
let collect_step ~max_words (algo : 'st ealgorithm) g ~round ~node st ib =
  let em = Emit.make () in
  let out = ref [] in
  em.Emit.enode <- node;
  em.Emit.estart <-
    (fun t u ->
      if t.Emit.eopen then invalid_arg "Engine.Emit.start: frame already open";
      t.Emit.edst <- u;
      t.Emit.eopen <- true;
      Codec.scratch_writer t.Emit.ew ~budget:max_words;
      t.Emit.ew);
  em.Emit.ecommit <-
    (fun t ->
      if not t.Emit.eopen then invalid_arg "Engine.Emit.commit: no open frame";
      t.Emit.eopen <- false;
      let p =
        Codec.decode (Codec.writer_bytes t.Emit.ew) ~base:0
          ~wire:(Codec.wire t.Emit.ew) ~words:(Codec.words t.Emit.ew)
      in
      out := (t.Emit.edst, p) :: !out);
  em.Emit.ebroadcast1 <-
    (fun t a ->
      if t.Emit.eopen then
        invalid_arg "Engine.Emit.broadcast1: frame already open";
      if max_words < 1 then
        raise (Codec.Width_exceeded { budget = max_words; words = 1 });
      (* ascending neighbor order, the per-slot order the engine's
         broadcast writes *)
      Graph.iter_neighbors g node (fun u _ -> out := (u, [| a |]) :: !out));
  let st = algo.estep g ~round ~node st ib em in
  if em.Emit.eopen then
    invalid_arg "Engine.Emit: frame left open at end of step";
  (st, List.rev !out)
