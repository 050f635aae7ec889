(* One benchmark run of one workload; see README.md.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--size full|tiny] [--instance I] [--out DIR]
     perfbench --selftest

   Prints a provenance line, the exact model counts, and as its last line
   {"correct", "attempted", "failed", "metrics"} with each metric as a bare
   name -> value.  Traced, these are the per-layer metrics; untraced, one
   instance's figures, which run.py combines over instances into the
   end-to-end metrics.  Exits 1 when an oracle rejects an output or an
   exact count fails to repeat. *)

let workloads : (module Wl.S) list = [ (module Flood); (module Mst); (module Serving) ]

(* An untraced run measures one instance: one input from its own seed,
   derived from --seed and --instance.  run.py starts one process per
   instance, [W.instances] in all, and combines them: a process's heap
   grows with what it ran before, and that history slowed later instances
   by up to 15%, while a user's CLI call starts fresh.  Per instance:
   setup, then the first call and its oracle (a cold pass: what a CLI user
   waits), then warm repeats of the call on the same inputs.  The repeats
   are counted, not timed: --seconds over the workload's nominal call
   time and its instance count, at least [Wl.min_repeats], so every run of
   one seed does the same work and allocates alike.  The instance's run_s
   is the median warm call, so a hiccup of the host stays out of it.  The
   traced run uses instance 0. *)
let instance_seed seed i = seed + (i * 1_000_003)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable exact : (string * int) list option;  (* the first call's counts *)
}

let judge t sp (v : Wl.verdict) =
  t.attempted <- t.attempted + v.attempted;
  t.failed <- t.failed + v.failed;
  t.errors <- t.errors @ v.errors;
  List.iter (fun (k, x) -> Span.note sp ("exact." ^ k) (float x)) v.exact;
  match t.exact with
  | None -> t.exact <- Some v.exact
  | Some first when first <> v.exact ->
    let show l = String.concat " " (List.map (fun (k, x) -> Printf.sprintf "%s=%d" k x) l) in
    t.failed <- t.failed + 1;
    t.errors <-
      t.errors @ [ Printf.sprintf "exact counts did not repeat: [%s] then [%s]" (show first) (show v.exact) ]
  | Some _ -> ()

let time f =
  let t0 = Span.now_ns () in
  let r = f () in
  (r, Span.seconds_since t0)

(* The major heap's high-water mark over the run. *)
let heap_peak_mb () =
  float ((Gc.stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

type run = {
  metrics : (string * float) list;
  samples : (string * float list) list;  (* timings behind the medians *)
  inputs : (string * int) list;
  warmup : int;
  trials : int;
}

let untraced (module W : Wl.S) ~size ~seed ~seconds ~instance t =
  let repeats =
    max Wl.min_repeats (Float.to_int (seconds /. float W.instances /. W.nominal_call_s))
  in
  let ctx, setup_s = time (fun () -> W.setup Span.off size ~seed:(instance_seed seed instance)) in
  let o, call_s = time (fun () -> W.exec Span.off ctx) in
  let v, check_s = time (fun () -> W.check ctx o) in
  judge t Span.off v;
  let warm =
    List.init repeats (fun _ ->
        let o, dt = time (fun () -> W.exec Span.off ctx) in
        judge t Span.off (W.check ctx o);
        dt)
  in
  {
    metrics =
      [
        ("setup_s", setup_s);
        ("time_to_solution_s", setup_s +. call_s +. check_s);
        ("run_s", Wl.median warm);
        ("answered", float v.answered);
        ("heap_peak_mb", heap_peak_mb ());
      ];
    samples = [ ("warm_s", warm) ];
    inputs = W.inputs ctx;
    warmup = 1;
    trials = repeats;
  }

(* Share of [setup + warm call] wall time that layer spans cover. *)
let coverage sp =
  let covered s = Span.dur s -. Span.self_time sp s in
  match (Span.named sp "setup", Wl.warm sp "exec") with
  | setup :: _, (_ :: _ as execs) ->
    let total = Span.dur setup +. Wl.median (List.map Span.dur execs) in
    100. *. Wl.ratio (covered setup +. Wl.median (List.map covered execs)) total
  | _ -> 0.

let traced (module W : Wl.S) ~size ~seed ~seconds t =
  let sp = Span.create () in
  let ctx = Span.with_ sp "setup" (fun () -> W.setup sp size ~seed) in
  let call () =
    let o = Span.with_ sp "exec" (fun () -> W.exec sp ctx) in
    judge t sp (Span.with_ sp "oracle.check" (fun () -> W.check ctx o))
  in
  call ();
  (* traced and untraced calls interleaved, so drift hits both alike *)
  let t0 = Span.now_ns () in
  let pairs = ref 0 in
  while Span.seconds_since t0 < seconds || !pairs < 2 do
    let o, dt = time (fun () -> W.exec Span.off ctx) in
    Span.note sp "untraced.exec_s" dt;
    judge t sp (W.check ctx o);
    call ();
    incr pairs
  done;
  Span.with_ sp "probe" (fun () -> W.probe sp ctx);
  let untraced_s = Wl.median (Span.notes sp "untraced.exec_s") in
  let common =
    [
      ("oracle.check_s", Wl.cold_dur sp "oracle.check");
      ("trace_overhead_pct", 100. *. Wl.ratio (Wl.warm_median sp "exec" -. untraced_s) untraced_s);
      ("span_coverage_pct", coverage sp);
    ]
  in
  ( {
      metrics = W.layers sp @ common;
      samples =
        [ ("untraced_s", Span.notes sp "untraced.exec_s"); ("traced_s", List.map Span.dur (Span.named sp "exec")) ];
      inputs = W.inputs ctx;
      warmup = 1;
      trials = !pairs;
    },
    sp )

(* ---- output ---- *)

let num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.12g" x else "0"

let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields) ^ "}"

let print_result ~correct t metrics =
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int t.attempted);
         ("failed", string_of_int t.failed);
         ("metrics", obj (List.map (fun (name, v) -> (name, num v)) metrics));
       ])

let find name =
  match List.find_opt (fun (module W : Wl.S) -> W.name = name) workloads with
  | Some w -> w
  | None ->
    let names = List.map (fun (module W : Wl.S) -> W.name) workloads in
    invalid_arg (Printf.sprintf "unknown workload %S (one of %s)" name (String.concat ", " names))

let bench ~workload ~seed ~seconds ~trace ~size ~instance ~out =
  let (module W : Wl.S) = find workload in
  let t = { attempted = 0; failed = 0; errors = []; exact = None } in
  let r, sp =
    if trace then traced (module W) ~size ~seed ~seconds t
    else (untraced (module W) ~size ~seed ~seconds ~instance t, Span.off)
  in
  let ints l = obj (List.map (fun (k, v) -> (k, string_of_int v)) l) in
  print_endline
    (obj
       [
         ( "provenance",
           obj
             [
               ("workload", Printf.sprintf "%S" W.name);
               ("seed", string_of_int seed);
               ("size", Printf.sprintf "%S" (match size with Wl.Full -> "full" | Wl.Tiny -> "tiny"));
               ("trace", string_of_bool trace);
               ("instance", string_of_int instance);
               ("instances", string_of_int W.instances);
               ("seconds", num seconds);
               ("ocaml_version", Printf.sprintf "%S" Sys.ocaml_version);
               ("recommended_domain_count", string_of_int (Domain.recommended_domain_count ()));
               ("inputs", ints r.inputs);
               ("warmup", string_of_int r.warmup);
               ("trials", string_of_int r.trials);
               ( "samples",
                 obj (List.map (fun (k, l) -> (k, "[" ^ String.concat ", " (List.map num l) ^ "]")) r.samples) );
             ] );
       ]);
  print_endline (obj [ ("exact", ints (Option.value ~default:[] t.exact)) ]);
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) t.errors;
  (match out with
  | Some dir when trace ->
    let file = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.json" W.name seed) in
    Out_channel.with_open_text file (fun oc -> output_string oc (Span.to_json sp))
  | _ -> ());
  let correct = t.errors = [] && t.failed = 0 in
  print_result ~correct t r.metrics;
  if not correct then exit 1

(* Every workload at tiny size: the output passes its oracle, the traced
   call reproduces the untraced exact counts, and a tampered answer is
   rejected. *)
let selftest () =
  let ok = ref true in
  List.iter
    (fun (module W : Wl.S) ->
      let ctx = W.setup Span.off Wl.Tiny ~seed:1 in
      let o = W.exec Span.off ctx in
      let v = W.check ctx o in
      let vt = W.check ctx (W.exec (Span.create ()) ctx) in
      let bad = W.check ctx (W.tamper ctx o) in
      let report what pass =
        Printf.printf "%-14s %-36s %s\n" W.name what (if pass then "ok" else "FAILED");
        if not pass then ok := false
      in
      report "oracle accepts the output" (v.errors = []);
      report "traced call repeats the exact counts" (vt.exact = v.exact && vt.errors = []);
      report "oracle rejects a tampered answer" (bad.errors <> []))
    workloads;
  if not !ok then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let size = ref "full" and instance = ref 0 and out = ref "" and self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or traced per-layer run");
      ("--size", Arg.Set_string size, "full|tiny input sizes (default full)");
      ("--instance", Arg.Set_int instance, "I untraced: the instance to measure (default 0)");
      ("--out", Arg.Set_string out, "DIR write the traced run's spans here");
      ("--selftest", Arg.Set self, " check every oracle at tiny sizes");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [options]";
  if !self then selftest ()
  else begin
    let size =
      match !size with
      | "full" -> Wl.Full
      | "tiny" -> Wl.Tiny
      | s -> invalid_arg ("--size " ^ s)
    in
    if !trace <> 0 && !trace <> 1 then invalid_arg "--trace must be 0 or 1";
    if !instance < 0 then invalid_arg "--instance must be at least 0";
    bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~size
      ~instance:!instance ~out:(if !out = "" then None else Some !out)
  end
