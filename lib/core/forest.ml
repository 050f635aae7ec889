open Kdom_graph

type cluster = { center : int; members : int list; radius : int }

let make g ~center members =
  let c : Cluster.t = { center; members } in
  { center; members; radius = Cluster.radius g c }

let singletons g = List.init (Graph.n g) (fun v -> { center = v; members = [ v ]; radius = 0 })

let size c = List.length c.members

let quotient g clusters =
  let owner = Array.make (Graph.n g) (-1) in
  Array.iteri (fun i c -> List.iter (fun v -> owner.(v) <- i) c.members) clusters;
  let seen = Hashtbl.create 16 in
  let pairs = ref [] in
  let lo = Graph.lo g and hi = Graph.hi g in
  for id = 0 to Graph.m g - 1 do
    let a = owner.(lo.(id)) and b = owner.(hi.(id)) in
    if a >= 0 && b >= 0 && a <> b then begin
      let key = if a < b then (a, b) else (b, a) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        pairs := (fst key, snd key, 1) :: !pairs
      end
    end
  done;
  Graph.of_edges ~n:(Array.length clusters) !pairs

let isolated q =
  let acc = ref [] in
  for v = Graph.n q - 1 downto 0 do
    if Graph.degree q v = 0 then acc := v :: !acc
  done;
  !acc

let merge_into g ~target c = make g ~center:target.center (target.members @ c.members)

let balanced_contraction ?small g clusters =
  let q = quotient g clusters in
  let label, ncomp = Traversal.components q in
  (* representative position of each component *)
  let comp_positions = Array.make ncomp [] in
  Array.iteri (fun pos comp -> comp_positions.(comp) <- pos :: comp_positions.(comp)) label;
  let out = ref [] in
  let rounds = ref 1 in
  Array.iter
    (fun positions ->
      match positions with
      | [] -> ()
      | [ lone ] -> out := clusters.(lone) :: !out
      | root_pos :: _ ->
        let t = Tree.root_component_at q root_pos in
        let bd = Balanced_dom.run ?small t in
        rounds := max !rounds bd.rounds;
        List.iter
          (fun (center_pos, member_positions) ->
            let members =
              List.concat_map (fun pos -> clusters.(pos).members) member_positions
            in
            out := make g ~center:clusters.(center_pos).center members :: !out)
          (Balanced_dom.stars t bd))
    comp_positions;
  (Array.of_list (List.rev !out), !rounds)

let simulation_factor ~radius_bound = (2 * radius_bound) + 1

let to_clusters cs = List.map (fun c -> ({ center = c.center; members = c.members } : Cluster.t)) cs
