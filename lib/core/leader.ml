open Kdom_graph
open Kdom_congest

type result = {
  leader : int;
  parent : int array;
  depth : int array;
  stats : Engine.stats;
}

let tag_offer = 0 (* [tag; wave id; depth of sender] *)
let tag_accept = 1 (* [tag; wave id] — sender adopted us as its parent *)
let tag_echo = 2 (* [tag; wave id] *)
let tag_leader = 3 (* [tag; leader id] *)

type state = {
  neighbors : int list;
  best : int;                (* id of the wave this node belongs to *)
  depth : int;
  parent : int;              (* -1 when this node originated the wave *)
  same_wave : int list;      (* non-child neighbors known to be in the wave *)
  pending : int list;        (* children that accepted but did not echo yet *)
  done_children : int list;  (* children whose echo arrived *)
  echoed : bool;
  just_adopted : bool;       (* suppresses same-round echo after an accept *)
  leader : int;              (* -1 until the final broadcast *)
  halted : bool;
}

let algorithm g : state Engine.ealgorithm =
  let init _g v =
    {
      neighbors = List.init (Graph.degree g v) (Graph.neighbor g v);
      best = v;
      depth = 0;
      parent = -1;
      same_wave = [];
      pending = [];
      done_children = [];
      echoed = false;
      just_adopted = false;
      leader = -1;
      halted = false;
    }
  in
  (* Frames leave newest first — the order this protocol has always sent
     in (see [Engine.ealgorithm] on send order) — so every batch below is
     emitted in reverse, and the final broadcast or echo before the
     adoption frames of the same step. *)
  let rev_iter f l = List.iter f (List.rev l) in
  let estep _g ~round ~node st inbox em =
    if round = 0 then begin
      rev_iter (fun u -> Engine.Emit.frame3 em ~dst:u tag_offer node 0) st.neighbors;
      (* [just_adopted] doubles as "check settledness next round even with
         an empty inbox" — a node with no neighbors (n = 1) gets no offers
         and must still reach the leader check at round 1 *)
      { st with just_adopted = true }
    end
    else begin
      (* the strongest wave offered this round, if it beats the current —
         same preference rule as [Repair]'s takeover election *)
      let upgrade = ref None in
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let rd = Engine.Inbox.read inbox i in
        if Codec.get rd = tag_offer then begin
          let w = Codec.get rd in
          if w > st.best then begin
            let d = Codec.get rd in
            match !upgrade with
            | Some (bw, bd, _) when not (Repair.wave_prefers (w, d) (bw, bd)) -> ()
            | _ -> upgrade := Some (w, d, Engine.Inbox.sender inbox i)
          end
        end
      done;
      let st =
        match !upgrade with
        | Some (w, d, via) ->
          {
            st with
            best = w;
            depth = d + 1;
            parent = via;
            same_wave = [];
            pending = [];
            done_children = [];
            echoed = false;
            just_adopted = true;
          }
        | None -> { st with just_adopted = false }
      in
      (* bookkeeping for the (possibly new) current wave *)
      let st = ref st in
      for i = 0 to Engine.Inbox.length inbox - 1 do
        let u = Engine.Inbox.sender inbox i in
        let rd = Engine.Inbox.read inbox i in
        let s = !st in
        st :=
          match Codec.get rd with
          | t when t = tag_offer ->
            if Codec.get rd = s.best && not (List.mem u s.same_wave) then
              { s with same_wave = u :: s.same_wave }
            else s (* weaker or already-counted offers need no reply *)
          | t when t = tag_accept ->
            if Codec.get rd = s.best then { s with pending = u :: s.pending } else s
          | t when t = tag_echo ->
            if Codec.get rd = s.best then
              {
                s with
                pending = List.filter (fun x -> x <> u) s.pending;
                done_children = u :: s.done_children;
              }
            else s
          | t when t = tag_leader -> { s with leader = Codec.get rd }
          | t -> invalid_arg (Printf.sprintf "Leader: unknown tag %d" t)
      done;
      let st = !st in
      let st =
        if st.leader >= 0 then begin
          (* forward the final broadcast and halt *)
          rev_iter
            (fun c -> Engine.Emit.frame2 em ~dst:c tag_leader st.leader)
            st.done_children;
          { st with halted = true }
        end
        else begin
          let settled =
            (not st.just_adopted)
            && List.for_all
                 (fun u ->
                   u = st.parent || List.mem u st.same_wave || List.mem u st.done_children)
                 st.neighbors
            && st.pending = []
          in
          if settled && st.parent = -1 && st.best = node then begin
            (* complete echo of our own wave: we are the leader *)
            rev_iter
              (fun c -> Engine.Emit.frame2 em ~dst:c tag_leader node)
              st.done_children;
            { st with leader = node; halted = true }
          end
          else if settled && st.parent <> -1 && not st.echoed then begin
            Engine.Emit.frame2 em ~dst:st.parent tag_echo st.best;
            { st with echoed = true }
          end
          else st
        end
      in
      (match !upgrade with
      | Some (w, d, via) ->
        rev_iter
          (fun u -> if u <> via then Engine.Emit.frame3 em ~dst:u tag_offer w (d + 1))
          st.neighbors;
        Engine.Emit.frame2 em ~dst:via tag_accept w
      | None -> ());
      st
    end
  in
  let ehalted st = st.halted in
  (* Wake hints: wave adoption, bookkeeping and the final broadcast are all
     message-driven.  The one empty-inbox transition is the echo check the
     round after an adoption ([just_adopted] suppresses the same-round
     echo), so an adopter asks to be stepped next round. *)
  let ewake st = if st.just_adopted then Engine.Next else Engine.OnMessage in
  { Engine.einit = init; estep; ehalted; ewake }

(* Word budget: the widest message is [| tag_offer; wave id; depth |] — 3
   words. *)
let max_words = 3

let result_of_states states stats =
  let leader_id = states.(0).leader in
  Array.iteri
    (fun v st ->
      if st.leader <> leader_id || st.best <> leader_id then
        invalid_arg (Printf.sprintf "Leader.elect: node %d disagrees on the leader" v))
    states;
  {
    leader = leader_id;
    parent = Array.map (fun st -> st.parent) states;
    depth = Array.map (fun st -> st.depth) states;
    stats;
  }

let elect ?trace ?sink g =
  if not (Graph.is_connected g) then invalid_arg "Leader.elect: graph must be connected";
  Option.iter (fun t -> Trace.set_budget t max_words) trace;
  let sink = Trace.wrap ?trace ?sink () in
  Trace.span_opt trace "leader.elect" (fun () ->
      let states, stats = Engine.run_emit ~max_words ~sink g (algorithm g) in
      result_of_states states stats)

let round_bound ~diam = (5 * diam) + 10
