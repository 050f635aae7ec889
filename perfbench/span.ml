(* In-memory span recorder for the traced run.

   A span is one call into a layer, timed by the benchmark around the
   library's public function: name, start, stop, parent span, and the
   minor words the call allocated.  Spans stay in memory and are written
   out once, when the run ends.  [off] records nothing, so the untraced
   runs pay one branch per wrapped call. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root span *)
  name : string;
  start : float;  (* seconds since the recorder was created *)
  stop : float;
  minor_words : float;
}

type t = {
  on : bool;
  origin : int64;
  mutable stack : int list;
  mutable next : int;
  mutable spans : span list;  (* most recent first *)
  notes : (string, float list) Hashtbl.t;  (* per-layer counters, newest first *)
}

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let make on =
  { on; origin = now_ns (); stack = []; next = 0; spans = []; notes = Hashtbl.create 16 }

let off = make false
let create () = make true
let enabled t = t.on
let clock t = seconds_since t.origin

let with_ t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let w0 = Gc.minor_words () in
    let start = clock t in
    Fun.protect
      ~finally:(fun () ->
        let stop = clock t in
        let minor_words = Gc.minor_words () -. w0 in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; name; start; stop; minor_words } :: t.spans)
      f
  end

let note t name v =
  if t.on then
    Hashtbl.replace t.notes name
      (v :: Option.value ~default:[] (Hashtbl.find_opt t.notes name))

let notes t name = List.rev (Option.value ~default:[] (Hashtbl.find_opt t.notes name))
let spans t = List.rev t.spans
let dur s = s.stop -. s.start
let named t name = List.filter (fun s -> s.name = name) (spans t)

(* A span's self time: its duration minus the time its children cover.
   Children of one parent never overlap (calls are sequential). *)
let self_time t s =
  List.fold_left
    (fun acc c -> if c.parent = s.id then acc -. dur c else acc)
    (dur s) t.spans

let to_json t =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n ";
      Printf.bprintf b
        "{\"id\": %d, \"parent\": %d, \"name\": %S, \"start_s\": %.9f, \
         \"stop_s\": %.9f, \"self_s\": %.9f, \"minor_words\": %.0f}"
        s.id s.parent s.name s.start s.stop (self_time t s) s.minor_words)
    (spans t);
  Buffer.add_char b ']';
  Buffer.contents b
