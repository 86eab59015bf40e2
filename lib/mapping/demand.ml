module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Catalog = Insp_platform.Catalog

type t = {
  compute : float;
  download : float;
  comm_in : float;
  comm_out : float;
}

let nic t = t.download +. t.comm_in +. t.comm_out

let distinct_objects app group =
  let tree = App.tree app in
  List.concat_map (Optree.leaves tree) group |> List.sort_uniq compare

let of_group app group =
  let group = List.sort_uniq compare group in
  let tree = App.tree app in
  let in_group i = List.mem i group in
  let rho = App.rho app in
  let compute =
    List.fold_left (fun acc i -> acc +. (rho *. App.work app i)) 0.0 group
  in
  let download =
    List.fold_left
      (fun acc k -> acc +. App.download_rate app k)
      0.0
      (distinct_objects app group)
  in
  let comm_in =
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc j ->
            if in_group j then acc else acc +. (rho *. App.output_size app j))
          acc (Optree.children tree i))
      0.0 group
  in
  let comm_out =
    List.fold_left
      (fun acc i ->
        match Optree.parent tree i with
        | Some p when not (in_group p) -> acc +. (rho *. App.output_size app i)
        | Some _ | None -> acc)
      0.0 group
  in
  { compute; download; comm_in; comm_out }

let of_operator app i = of_group app [ i ]

let tolerance = 1e-9

let leq value capacity = value <= capacity *. (1.0 +. tolerance) +. tolerance

let fits (config : Catalog.config) t =
  leq t.compute config.cpu.speed && leq (nic t) config.nic.bandwidth

let max_crossing_edge app group =
  let group = List.sort_uniq compare group in
  let tree = App.tree app in
  let in_group i = List.mem i group in
  let rho = App.rho app in
  List.fold_left
    (fun acc i ->
      let acc =
        List.fold_left
          (fun acc j ->
            if in_group j then acc
            else Float.max acc (rho *. App.output_size app j))
          acc (Optree.children tree i)
      in
      match Optree.parent tree i with
      | Some p when not (in_group p) ->
        Float.max acc (rho *. App.output_size app i)
      | Some _ | None -> acc)
    0.0 group
