module Objects = Insp_tree.Objects
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Demand = Insp_mapping.Demand

type demand = Demand.t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

let nic = Demand.nic

let distinct_objects dag group =
  List.concat_map
    (fun i ->
      List.filter_map
        (function Dag.Object k -> Some k | Dag.Node _ -> None)
        (Dag.inputs dag i))
    group
  |> List.sort_uniq compare

(* Producers outside the group feeding members, with the fastest
   consuming rate inside the group. *)
let external_sources dag group =
  let in_group i = List.mem i group in
  List.fold_left
    (fun acc i ->
      let rate_i = (Dag.node dag i).Dag.rate in
      List.fold_left
        (fun acc input ->
          match input with
          | Dag.Object _ -> acc
          | Dag.Node j ->
            if in_group j then acc
            else
              let prev = try List.assoc j acc with Not_found -> 0.0 in
              (j, Float.max rate_i prev) :: List.remove_assoc j acc)
        acc (Dag.inputs dag i))
    [] group

let group_demand dag group =
  let group = List.sort_uniq compare group in
  let in_group i = List.mem i group in
  let objects = Dag.objects dag in
  let compute =
    List.fold_left
      (fun acc i ->
        let n = Dag.node dag i in
        acc +. (n.Dag.rate *. n.Dag.work))
      0.0 group
  in
  let download =
    List.fold_left
      (fun acc k -> acc +. Objects.rate objects k)
      0.0 (distinct_objects dag group)
  in
  let comm_in =
    List.fold_left
      (fun acc (j, rate) -> acc +. ((Dag.node dag j).Dag.output *. rate))
      0.0 (external_sources dag group)
  in
  (* Conservative: one stream per external consumer. *)
  let comm_out =
    List.fold_left
      (fun acc i ->
        let out = (Dag.node dag i).Dag.output in
        List.fold_left
          (fun acc c ->
            if in_group c then acc
            else acc +. (out *. (Dag.node dag c).Dag.rate))
          acc (Dag.consumers dag i))
      0.0 group
  in
  { compute; download; comm_in; comm_out }

(* Streams leaving processor [u]: one per (producer on u, destination
   processor), at the max rate of the destination's consumers. *)
let outgoing_streams dag alloc u =
  List.concat_map
    (fun i ->
      let out = (Dag.node dag i).Dag.output in
      let per_dest =
        List.fold_left
          (fun acc c ->
            match Alloc.assignment alloc c with
            | Some v when v <> u ->
              let rate = (Dag.node dag c).Dag.rate in
              let prev = try List.assoc v acc with Not_found -> 0.0 in
              (v, Float.max rate prev) :: List.remove_assoc v acc
            | Some _ | None -> acc)
          [] (Dag.consumers dag i)
      in
      List.map (fun (v, rate) -> (i, v, out *. rate)) per_dest)
    (Alloc.operators_of alloc u)

let proc_demand dag alloc u =
  let group = Alloc.operators_of alloc u in
  let d = group_demand dag group in
  let comm_out =
    List.fold_left (fun acc (_, _, f) -> acc +. f) 0.0
      (outgoing_streams dag alloc u)
  in
  { d with comm_out }

let pair_flow dag alloc u v =
  let one_way src dst =
    List.fold_left
      (fun acc (_, dest, f) -> if dest = dst then acc +. f else acc)
      0.0
      (outgoing_streams dag alloc src)
  in
  one_way u v +. one_way v u

(* Streams entering processor [u]: one per producer elsewhere, at the
   fastest rate any consumer on [u] needs. *)
let check dag platform alloc =
  let iter_streams f =
    for u = 0 to Alloc.n_procs alloc - 1 do
      List.iter
        (fun (j, rate) ->
          match Alloc.assignment alloc j with
          | Some v when v <> u -> f u v ((Dag.node dag j).Dag.output *. rate)
          | Some _ | None -> ())
        (external_sources dag (Alloc.operators_of alloc u))
    done
  in
  Check.check_view
    {
      Check.n_nodes = Dag.n_nodes dag;
      objects = Dag.objects dag;
      needed = (fun u -> distinct_objects dag (Alloc.operators_of alloc u));
      demand = proc_demand dag alloc;
      iter_streams;
    }
    platform alloc
