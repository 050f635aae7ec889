open Kdom_graph

type report = {
  sync_rounds : int;
  async_time : float;
  extra_messages : int;
  mean_delay : float;
}

let simulate ~rng ?(max_delay = 1.0) g ~rounds =
  let n = Graph.n g in
  let t = Array.make n 0.0 in
  let next = Array.make n 0.0 in
  let delay_sum = ref 0.0 and delay_count = ref 0 in
  for _pulse = 1 to rounds do
    for v = 0 to n - 1 do
      (* Pulse p at v fires once all neighbors' pulse p-1 safety messages
         arrived. *)
      let latest = ref t.(v) in
      Graph.iter_neighbors g v (fun u _ ->
        let d = Rng.float rng max_delay in
        delay_sum := !delay_sum +. d;
        incr delay_count;
        latest := Float.max !latest (t.(u) +. d));
      next.(v) <- !latest
    done;
    Array.blit next 0 t 0 n
  done;
  let async_time = Array.fold_left Float.max 0.0 t in
  {
    sync_rounds = rounds;
    async_time;
    extra_messages = 2 * Graph.m g * rounds;
    mean_delay = (if !delay_count = 0 then 0.0 else !delay_sum /. float_of_int !delay_count);
  }
