(* A minimal fixed-size fork/join pool over stdlib [Domain]: one worker per
   shard, coordinated with a mutex + two condition variables.  The shape is
   domainslib's [Task.pool] restricted to the single pattern the sharded
   engine needs — run the same closure once per shard, then barrier — so the
   library carries no dependency beyond the OCaml 5 stdlib.

   Memory model: every shared-array write a worker performs inside [run] is
   ordered before the coordinator's return by the mutex hand-off (release on
   the worker's final unlock, acquire on the coordinator's wait loop), so
   phase-separated readers never race with phase-N writers. *)

type t = {
  size : int;
  mutex : Mutex.t;
  go : Condition.t;
  finished : Condition.t;
  mutable epoch : int;           (* bumped once per [run]; workers wait on it *)
  mutable job : (int -> unit) option;
  mutable pending : int;         (* workers still inside the current job *)
  mutable failures : (int * exn) list;  (* (worker index, exception) *)
  mutable stop : bool;
  mutable workers : unit Domain.t array;
}

let worker t i =
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while t.epoch = !seen && not t.stop do
      Condition.wait t.go t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.epoch;
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      let failure = try job i; None with exn -> Some exn in
      Mutex.lock t.mutex;
      (match failure with
      | None -> ()
      | Some exn -> t.failures <- (i, exn) :: t.failures);
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.signal t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: domains < 1";
  let t =
    {
      size = domains;
      mutex = Mutex.create ();
      go = Condition.create ();
      finished = Condition.create ();
      epoch = 0;
      job = None;
      pending = 0;
      failures = [];
      stop = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (domains - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let size t = t.size

let run t f =
  if t.size = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.epoch <- t.epoch + 1;
    t.pending <- t.size - 1;
    t.failures <- [];
    Condition.broadcast t.go;
    Mutex.unlock t.mutex;
    (* the calling domain doubles as worker 0 *)
    let own_failure = try f 0; None with exn -> Some exn in
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.finished t.mutex
    done;
    let failures = t.failures in
    t.job <- None;
    Mutex.unlock t.mutex;
    let failures =
      match own_failure with None -> failures | Some exn -> (0, exn) :: failures
    in
    match List.sort (fun (a, _) (b, _) -> compare a b) failures with
    | [] -> ()
    | (_, exn) :: _ -> raise exn
  end

let shutdown t =
  if Array.length t.workers > 0 then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.go;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

(* A one-domain pool spawns nothing and never locks ([run] is a direct
   call, [shutdown] a no-op), so one shared value serves every
   one-domain caller without building a mutex and two condition
   variables per run. *)
let solo = create ~domains:1

let with_pool ~domains f =
  if domains = 1 then f solo
  else begin
    let t = create ~domains in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
  end
