open Kdom_graph
open Kdom_congest

type result = {
  selected : Graph.edge list;
  upcast_stats : Engine.stats;
  broadcast_rounds : int;
  rounds : int;
  stalls : int;
  started_at : int array;
  root_received : int;
}

let tag_frag = 0 (* [tag; fragment id] *)
let tag_edge = 1 (* [tag; edge id; frag u; frag v; weight] *)
let tag_term = 2 (* [tag] *)

(* Hashtable-backed union-find over fragment ids: only touched fragments
   are materialized, so per-node memory stays proportional to the edges the
   node actually upcast. *)
module Lazy_uf = struct
  type t = (int, int) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let rec find t x =
    match Hashtbl.find_opt t x with
    | None -> x
    | Some p when p = x -> x
    | Some p ->
      let root = find t p in
      Hashtbl.replace t x root;
      root

  let union t a b =
    let ra = find t a and rb = find t b in
    if ra = rb then false
    else begin
      Hashtbl.replace t ra rb;
      true
    end

  let same t a b = find t a = find t b
end

type node_state = {
  parent : int;
  children : int list;
  frag : int;
  mutable q : (int, int * int * int) Hashtbl.t; (* id -> (frag_u, frag_v, w) *)
  sent : (int, unit) Hashtbl.t;
  uf : Lazy_uf.t;
  heard : (int, unit) Hashtbl.t;      (* children that sent their first message *)
  finished : (int, unit) Hashtbl.t;   (* children that terminated *)
  mutable started : bool;
  mutable started_round : int;
  mutable done_ : bool;
}

(* Word budget: the widest message is
   [| tag_edge; edge id; frag u; frag v; weight |] — 5 words, declared as 6
   to leave one word of slack for the paper's O(log n)-bit envelope. *)
let max_words = 6

let algorithm ?(eliminate_cycles = true) g ~(bfs : Bfs_tree.info) ~fragment_of =
  let stalls = ref 0 in
  let init _g v =
    {
      parent = bfs.parent.(v);
      children = bfs.children.(v);
      frag = fragment_of.(v);
      q = Hashtbl.create 8;
      sent = Hashtbl.create 8;
      uf = Lazy_uf.create ();
      heard = Hashtbl.create 4;
      finished = Hashtbl.create 4;
      started = false;
      started_round = -1;
      done_ = false;
    }
  in
  let estep _g ~round ~node st inbox em =
    if round = 0 then begin
      (* descending neighbor order: the order this protocol has always
         sent its fragment ids in (see [Engine.ealgorithm] on send order) *)
      for i = Graph.degree g node - 1 downto 0 do
        Engine.Emit.frame2 em ~dst:(Graph.neighbor g node i) tag_frag st.frag
      done
    end
    else if round = 1 then
      (* learn neighbor fragments; incident inter-fragment edges seed Q *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        match Codec.get rd with
        | t when t = tag_frag ->
          let nfrag = Codec.get rd in
          if nfrag <> st.frag then begin
            let j = Graph.port g node u in
            assert (j >= 0);
            let id = (Graph.edge_ids g).(j) in
            Hashtbl.replace st.q id (st.frag, nfrag, (Graph.weights g).(id))
          end
        | _ -> invalid_arg "Pipeline: unexpected tag at round 1"
      done
    else begin
      (* consume child messages *)
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        match Codec.get rd with
        | t when t = tag_edge ->
          Hashtbl.replace st.heard u ();
          let id = Codec.get rd in
          if not (Hashtbl.mem st.q id) then begin
            let fu = Codec.get rd in
            let fv = Codec.get rd in
            Hashtbl.replace st.q id (fu, fv, Codec.get rd)
          end
        | t when t = tag_term ->
          Hashtbl.replace st.heard u ();
          Hashtbl.replace st.finished u ()
        | _ -> invalid_arg "Pipeline: unexpected tag"
      done;
      if not st.started then
        st.started <-
          List.for_all (fun c -> Hashtbl.mem st.heard c) st.children;
      let all_children_done =
        List.for_all (fun c -> Hashtbl.mem st.finished c) st.children
      in
      if st.parent = -1 then begin
        (* the root only collects; it finishes when its children have *)
        if st.started && all_children_done && not st.done_ then st.done_ <- true
      end
      else if st.started && not st.done_ then begin
        (* RC = Q \ (U ∪ Cyc(U, Q)); upcast the lightest candidate *)
        let best = ref None in
        Hashtbl.iter
          (fun id (fu, fv, w) ->
            if not (Hashtbl.mem st.sent id) then
              if (not eliminate_cycles) || not (Lazy_uf.same st.uf fu fv) then
                match !best with
                | Some (bw, bid, _, _) when (bw, bid) <= (w, id) -> ()
                | _ -> best := Some (w, id, fu, fv))
          st.q;
        match !best with
        | Some (w, id, fu, fv) ->
          if st.started_round = -1 then st.started_round <- round;
          Hashtbl.replace st.sent id ();
          if eliminate_cycles then ignore (Lazy_uf.union st.uf fu fv);
          let wr = Engine.Emit.start em ~dst:st.parent in
          Codec.put wr tag_edge;
          Codec.put wr id;
          Codec.put wr fu;
          Codec.put wr fv;
          Codec.put wr w;
          Engine.Emit.commit em
        | None ->
          if all_children_done then begin
            if st.started_round = -1 then st.started_round <- round;
            Engine.Emit.frame1 em ~dst:st.parent tag_term;
            st.done_ <- true
          end
          else
            (* Lemma 5.3 says this cannot happen: an active child implies a
               candidate.  Wait and record the violation. *)
            incr stalls
      end
    end;
    st
  in
  let ehalted st = st.done_ in
  (* A node that has started upcasting drains one queued candidate per
     round with no further input, and a leaf starts vacuously — both need
     stepping every round until done.  Everything else (fragment exchange,
     hearing children, termination) arrives as a message. *)
  let ewake st =
    if st.done_ then Engine.OnMessage
    else if st.started || st.children = [] then Engine.Next
    else Engine.OnMessage
  in
  ({ Engine.einit = init; estep; ehalted; ewake }, stalls)

let selected_of_states g ~fragment_of ~root states =
  let nf = 1 + Array.fold_left max 0 fragment_of in
  let root_state = states.(root) in
  let edges_at_root =
    Hashtbl.fold (fun id (fu, fv, w) acc -> (fu, fv, w, id) :: acc) root_state.q []
    |> List.sort (fun (_, _, w1, _) (_, _, w2, _) -> compare w1 w2)
  in
  List.map (Graph.edge g) (Mst.mst_of_multigraph ~n:nf edges_at_root)

let run ?(eliminate_cycles = true) ?trace ?sink g ~(bfs : Bfs_tree.info) ~fragment_of =
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Pipeline.run: edge weights must be distinct";
  let algo, stalls = algorithm ~eliminate_cycles g ~bfs ~fragment_of in
  Option.iter (fun t -> Trace.set_budget t max_words) trace;
  let sink = Trace.wrap ?trace ?sink () in
  let states, upcast_stats =
    Trace.span_opt trace "pipeline.upcast" (fun () ->
        Engine.run_emit ~max_words ~sink g algo)
  in
  let root_state = states.(bfs.root) in
  let selected = selected_of_states g ~fragment_of ~root:bfs.root states in
  let broadcast_rounds = max 0 (List.length selected - 1) + bfs.height + 1 in
  Trace.span_opt trace "pipeline.broadcast" (fun () ->
      Trace.charge_opt trace broadcast_rounds);
  {
    selected;
    upcast_stats;
    broadcast_rounds;
    rounds = upcast_stats.rounds + broadcast_rounds;
    stalls = !stalls;
    started_at = Array.map (fun st -> st.started_round) states;
    root_received = Hashtbl.length root_state.q;
  }

let round_bound ~diam ~fragments = (2 * diam) + fragments + 12
