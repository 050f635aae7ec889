open Kdom_graph

type result = { mst : Graph.edge list; phases : int; rounds : int; ledger : Ledger.t }

type fragment = { root : int; members : int list; tree_edges : Graph.edge list; depth : int }

(* Same structure as Simple_mst but uncapped: every fragment is always
   active, and the loop runs until one fragment spans the graph. *)
let run g =
  if not (Graph.is_connected g) then invalid_arg "Ghs.run: graph must be connected";
  if not (Graph.has_distinct_weights g) then
    invalid_arg "Ghs.run: edge weights must be distinct";
  let n = Graph.n g in
  let lo = Graph.lo g and hi = Graph.hi g and ws = Graph.weights g in
  let ledger = Ledger.create () in
  let fragments =
    ref (Array.init n (fun v -> { root = v; members = [ v ]; tree_edges = []; depth = 0 }))
  in
  let frag_of = Array.init n (fun v -> v) in
  let phase = ref 0 in
  while Array.length !fragments > 1 do
    incr phase;
    let frags = !fragments in
    let nfrag = Array.length frags in
    let depth_max = Array.fold_left (fun acc f -> max acc f.depth) 0 frags in
    Ledger.charge ledger (Printf.sprintf "phase %d" !phase) ((2 * depth_max) + 4);
    (* minimum-weight outgoing edge id per fragment, -1 for none *)
    let mwoe = Array.make nfrag (-1) in
    for id = 0 to Graph.m g - 1 do
      let fu = frag_of.(lo.(id)) and fv = frag_of.(hi.(id)) in
      if fu <> fv then begin
        let update f =
          let b = mwoe.(f) in
          if b < 0 || ws.(b) > ws.(id) then mwoe.(f) <- id
        in
        update fu;
        update fv
      end
    done;
    let uf = Union_find.create nfrag in
    Array.iteri
      (fun f id ->
        if id >= 0 then begin
          let fu = frag_of.(lo.(id)) and fv = frag_of.(hi.(id)) in
          ignore (Union_find.union uf f (if fu = f then fv else fu))
        end)
      mwoe;
    let groups = Hashtbl.create 16 in
    for f = 0 to nfrag - 1 do
      let r = Union_find.find uf f in
      Hashtbl.replace groups r (f :: Option.value ~default:[] (Hashtbl.find_opt groups r))
    done;
    let new_frags = ref [] in
    Hashtbl.iter
      (fun _r group ->
        match group with
        | [ lone ] -> new_frags := frags.(lone) :: !new_frags
        | _ ->
          let root =
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
            if !mutual = -1 then invalid_arg "Ghs: merge group without a mutual edge";
            !mutual
          in
          let members = List.concat_map (fun f -> frags.(f).members) group in
          let inherited = List.concat_map (fun f -> frags.(f).tree_edges) group in
          let chosen =
            List.filter_map (fun f -> if mwoe.(f) >= 0 then Some mwoe.(f) else None) group
            |> List.sort_uniq compare |> List.map (Graph.edge g)
          in
          let tree_edges = inherited @ chosen in
          let depth = Simple_mst.tree_depth root members tree_edges in
          new_frags := { root; members; tree_edges; depth } :: !new_frags)
      groups;
    fragments := Array.of_list !new_frags;
    Array.iteri (fun idx f -> List.iter (fun v -> frag_of.(v) <- idx) f.members) !fragments
  done;
  let mst =
    (!fragments).(0).tree_edges
    |> List.sort (fun (a : Graph.edge) b -> compare a.id b.id)
  in
  { mst; phases = !phase; rounds = Ledger.total ledger; ledger }
