open Kdom_graph
open Kdom_congest

type info = {
  root : int;
  depth : int array;
  parent : int array;
  children : int list array;
  height : int;
  m_known : int array;
}

(* Message tags *)
let tag_explore = 0 (* [tag; depth of sender] *)
let tag_accept = 1 (* [tag] — sender adopted us as its parent *)
let tag_echo = 2 (* [tag; max depth in sender's subtree] *)
let tag_m = 3 (* [tag; M] — broadcast of the tree height *)

type state = {
  is_root : bool;
  neighbors : int list;
  depth : int;                  (* -1 until adopted *)
  parent : int;
  adopted_round : int;
  unclassified : int list;      (* non-parent neighbors not yet child/non-child *)
  children : int list;
  echoes_missing : int list;    (* children whose echo is still awaited *)
  subtree_max : int;            (* max depth seen among echoes and self *)
  echo_sent : bool;
  m : int;                      (* -1 until known *)
  halted : bool;
}

let algorithm g ~root =
  if not (Graph.is_connected g) then invalid_arg "Bfs_tree.run: graph must be connected";
  let init _g v =
    {
      is_root = v = root;
      neighbors = List.init (Graph.degree g v) (Graph.neighbor g v);
      depth = -1;
      parent = -1;
      adopted_round = -1;
      unclassified = [];
      children = [];
      echoes_missing = [];
      subtree_max = 0;
      echo_sent = false;
      m = -1;
      halted = false;
    }
  in
  let remove x xs = List.filter (fun y -> y <> x) xs in
  let estep _g ~round ~node:_ st inbox em =
    (* 1. Consume the inbox. *)
    let explore_senders = ref [] in
    let st = ref st in
    for i = 0 to Engine.Inbox.length inbox - 1 do
      let u = Engine.Inbox.sender inbox i in
      let rd = Engine.Inbox.read inbox i in
      let s = !st in
      st :=
        match Codec.get rd with
        | t when t = tag_explore ->
          if s.depth = -1 then begin
            explore_senders := (u, Codec.get rd) :: !explore_senders;
            s
          end
          else
            (* u explored on its own: it is not our child *)
            { s with unclassified = remove u s.unclassified }
        | t when t = tag_accept ->
          {
            s with
            unclassified = remove u s.unclassified;
            children = u :: s.children;
            echoes_missing = u :: s.echoes_missing;
          }
        | t when t = tag_echo ->
          {
            s with
            echoes_missing = remove u s.echoes_missing;
            subtree_max = max s.subtree_max (Codec.get rd);
          }
        | t when t = tag_m -> { s with m = Codec.get rd }
        | t -> invalid_arg (Printf.sprintf "Bfs_tree: unknown tag %d" t)
    done;
    let st1 = !st in
    (* 2. Adoption. *)
    let start = st1.is_root && round = 0 in
    let adoption =
      match !explore_senders with
      | _ when start -> None
      | [] -> None
      | senders ->
        let parent, pdepth =
          List.fold_left
            (fun (bu, bd) (u, d) -> if u < bu then (u, d) else (bu, bd))
            (List.hd senders) (List.tl senders)
        in
        Some (senders, parent, pdepth + 1, remove parent st1.neighbors)
    in
    let st2 =
      if start then
        {
          st1 with
          depth = 0;
          adopted_round = 0;
          unclassified = st1.neighbors;
          subtree_max = 0;
        }
      else
        match adoption with
        | None -> st1
        | Some (senders, parent, depth, others) ->
          (* senders other than the chosen parent are adopted elsewhere *)
          let unclassified =
            List.filter (fun u -> not (List.mem_assoc u senders)) others
          in
          { st1 with depth; parent; adopted_round = round; unclassified; subtree_max = depth }
    in
    (* 3. Echo once the children are known and have all reported. *)
    let children_known =
      st2.depth >= 0 && st2.unclassified = [] && round >= st2.adopted_round + 2
    in
    let echo = children_known && st2.echoes_missing = [] && not st2.echo_sent in
    let st3 =
      if not echo then st2
      else if st2.is_root then
        { st2 with echo_sent = true; m = st2.subtree_max; halted = true }
      else { st2 with echo_sent = true }
    in
    (* 4. Forward M downwards and halt. *)
    let forward = st3.m >= 0 && not st3.halted in
    (* Frames leave newest first: the sends of step 4, then 3, then 2,
       each batch in reverse — the order this protocol has always sent
       in (see [Engine.ealgorithm] on send order). *)
    let rev_iter f l = List.iter f (List.rev l) in
    if forward then
      rev_iter (fun c -> Engine.Emit.frame2 em ~dst:c tag_m st3.m) st3.children;
    if echo then begin
      if st2.is_root then
        rev_iter (fun c -> Engine.Emit.frame2 em ~dst:c tag_m st3.m) st2.children
      else Engine.Emit.frame2 em ~dst:st2.parent tag_echo st2.subtree_max
    end;
    if start then
      rev_iter (fun u -> Engine.Emit.frame2 em ~dst:u tag_explore 0) st1.neighbors
    else begin
      match adoption with
      | None -> ()
      | Some (_, parent, depth, others) ->
        rev_iter (fun u -> Engine.Emit.frame2 em ~dst:u tag_explore depth) others;
        Engine.Emit.frame1 em ~dst:parent tag_accept
    end;
    if forward then { st3 with halted = true } else st3
  in
  let ehalted st = st.halted in
  (* Wake hints: everything after adoption is message-driven, except the
     children-known echo check, which first becomes true at
     [adopted_round + 2] and can fire on an empty inbox (leaf with no
     unclassified neighbors). *)
  let ewake st =
    if st.depth >= 0 && not st.echo_sent then Engine.At (st.adopted_round + 2)
    else Engine.OnMessage
  in
  { Engine.einit = init; estep; ehalted; ewake }

let info_of_states _g root states =
  let info =
    {
      root;
      depth = Array.map (fun st -> st.depth) states;
      parent = Array.map (fun st -> st.parent) states;
      children = Array.map (fun st -> List.sort compare st.children) states;
      height = states.(root).m;
      m_known = Array.map (fun st -> st.m) states;
    }
  in
  info

let info_of_states g ~root states = info_of_states g root states

(* Word budget: the widest message is [| tag_explore; depth |] /
   [| tag_echo; max depth |] / [| tag_m; M |] — 2 words. *)
let max_words = 2

let run ?trace ?sink g ~root =
  Option.iter (fun t -> Trace.set_budget t max_words) trace;
  let sink = Trace.wrap ?trace ?sink () in
  Trace.span_opt trace "bfs_tree" (fun () ->
      let states, stats = Engine.run_emit ~max_words ~sink g (algorithm g ~root) in
      (info_of_states g ~root states, stats))

let round_bound ~diam = (4 * diam) + 5

let of_parents g ~root ~parent ~depth =
  let n = Graph.n g in
  if Array.length parent <> n || Array.length depth <> n then
    invalid_arg "Bfs_tree.of_parents: array size mismatch";
  if parent.(root) <> -1 || depth.(root) <> 0 then
    invalid_arg "Bfs_tree.of_parents: root must have parent -1 and depth 0";
  let children = Array.make n [] in
  Array.iteri
    (fun v p ->
      if v <> root then begin
        if p < 0 || p >= n || depth.(v) <> depth.(p) + 1
           || Graph.port g v p < 0 then
          invalid_arg "Bfs_tree.of_parents: inconsistent parent links";
        children.(p) <- v :: children.(p)
      end)
    parent;
  let height = Array.fold_left max 0 depth in
  {
    root;
    depth = Array.copy depth;
    parent = Array.copy parent;
    children = Array.map (fun c -> List.sort compare c) children;
    height;
    m_known = Array.make n height;
  }
