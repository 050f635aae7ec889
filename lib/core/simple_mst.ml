open Kdom_graph

type fragment = {
  root : int;
  members : int list;
  tree_edges : Graph.edge list;
  depth : int;
}

type result = {
  fragments : fragment list;
  rounds : int;
  phases : int;
  ledger : Ledger.t;
}

let phases_for k = max 1 (Log_star.ceil_log2 (k + 1))

let round_bound ~k =
  let p = phases_for k in
  let rec go i acc = if i > p then acc else go (i + 1) (acc + (5 * (1 lsl i)) + 2) in
  go 1 0

(* Depth of the fragment tree from its root, following tree edges only. *)
let tree_depth root members tree_edges =
  let adj = Hashtbl.create (List.length members) in
  let add a b =
    Hashtbl.replace adj a (b :: Option.value ~default:[] (Hashtbl.find_opt adj a))
  in
  List.iter (fun (e : Graph.edge) -> add e.u e.v; add e.v e.u) tree_edges;
  let dist = Hashtbl.create (List.length members) in
  Hashtbl.replace dist root 0;
  let q = Queue.create () in
  Queue.add root q;
  let maxd = ref 0 in
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = Hashtbl.find dist v in
    maxd := max !maxd d;
    List.iter
      (fun u ->
        if not (Hashtbl.mem dist u) then begin
          Hashtbl.replace dist u (d + 1);
          Queue.add u q
        end)
      (Option.value ~default:[] (Hashtbl.find_opt adj v))
  done;
  List.iter
    (fun v ->
      if not (Hashtbl.mem dist v) then
        invalid_arg "Simple_mst: fragment tree does not span its members")
    members;
  !maxd

let run ?trace g ~k =
  if k < 1 then invalid_arg "Simple_mst.run: k must be >= 1";
  if not (Graph.is_connected g) then invalid_arg "Simple_mst.run: graph must be connected";
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Simple_mst.run: edge weights must be distinct";
  let n = Graph.n g in
  let lo = Graph.lo g and hi = Graph.hi g and ws = Graph.weights g in
  let ledger = Ledger.create () in
  let phases = phases_for k in
  let fragments =
    ref (Array.init n (fun v -> { root = v; members = [ v ]; tree_edges = []; depth = 0 }))
  in
  let frag_of = Array.init n (fun v -> v) in
  for i = 1 to phases do
    Kdom_congest.Trace.span_opt trace (Printf.sprintf "simple_mst.phase[%d]" i)
    @@ fun () ->
    let cap = 1 lsl i in
    let frags = !fragments in
    let nf = Array.length frags in
    let active = Array.map (fun f -> f.depth <= cap) frags in
    (* minimum-weight outgoing edge id of every active fragment, -1 for
       none; the first of equal weights in id order wins *)
    let mwoe = Array.make nf (-1) in
    for id = 0 to Graph.m g - 1 do
      let fu = frag_of.(lo.(id)) and fv = frag_of.(hi.(id)) in
      if fu <> fv then begin
        let update f =
          if active.(f) then begin
            let b = mwoe.(f) in
            if b < 0 || ws.(b) > ws.(id) then mwoe.(f) <- id
          end
        in
        update fu;
        update fv
      end
    done;
    (* merge groups: weak components of the wish-pointer graph *)
    let uf = Union_find.create nf in
    Array.iteri
      (fun f id ->
        if id >= 0 then begin
          let fu = frag_of.(lo.(id)) and fv = frag_of.(hi.(id)) in
          let target = if fu = f then fv else fu in
          ignore (Union_find.union uf f target)
        end)
      mwoe;
    (* gather groups *)
    let groups = Hashtbl.create 16 in
    for f = 0 to nf - 1 do
      let r = Union_find.find uf f in
      Hashtbl.replace groups r (f :: Option.value ~default:[] (Hashtbl.find_opt groups r))
    done;
    let new_frags = ref [] in
    Hashtbl.iter
      (fun _r group ->
        match group with
        | [ lone ] -> new_frags := frags.(lone) :: !new_frags
        | _ ->
          (* the new root: the unique sink (a fragment with no wish), or the
             higher-id endpoint of the unique mutually chosen edge *)
          let sinks = List.filter (fun f -> mwoe.(f) < 0) group in
          let root =
            match sinks with
            | [ s ] -> frags.(s).root
            | [] ->
              let mutual = ref (-1) in
              List.iter
                (fun f ->
                  let id = mwoe.(f) in
                  if id >= 0 then begin
                    let fu = frag_of.(lo.(id)) and fv = frag_of.(hi.(id)) in
                    let partner = if fu = f then fv else fu in
                    if mwoe.(partner) = id then mutual := hi.(id)
                  end)
                group;
              if !mutual = -1 then
                invalid_arg "Simple_mst: merge group without sink or mutual edge";
              !mutual
            | _ -> invalid_arg "Simple_mst: merge group with several sinks"
          in
          let members = List.concat_map (fun f -> frags.(f).members) group in
          let inherited = List.concat_map (fun f -> frags.(f).tree_edges) group in
          let chosen =
            List.filter_map (fun f -> if mwoe.(f) >= 0 then Some mwoe.(f) else None) group
            |> List.sort_uniq compare |> List.map (Graph.edge g)
          in
          let tree_edges = inherited @ chosen in
          let depth = tree_depth root members tree_edges in
          new_frags := { root; members; tree_edges; depth } :: !new_frags)
      groups;
    fragments := Array.of_list !new_frags;
    Array.iteri
      (fun idx f -> List.iter (fun v -> frag_of.(v) <- idx) f.members)
      !fragments;
    let phase_rounds = (5 * (1 lsl i)) + 2 in
    Ledger.charge ledger (Printf.sprintf "phase %d" i) phase_rounds;
    Kdom_congest.Trace.charge_opt trace phase_rounds
  done;
  {
    fragments = Array.to_list !fragments;
    rounds = Ledger.total ledger;
    phases;
    ledger;
  }

let spanning_forest_edges r = List.concat_map (fun f -> f.tree_edges) r.fragments

let fragment_of_array g r =
  let owner = Array.make (Graph.n g) (-1) in
  List.iteri (fun i f -> List.iter (fun v -> owner.(v) <- i) f.members) r.fragments;
  owner
