module App = Insp_tree.App
module Optree = Insp_tree.Optree
module Objects = Insp_tree.Objects
module Platform = Insp_platform.Platform
module Servers = Insp_platform.Servers

type violation =
  | Unassigned_operator of int
  | Missing_download of { proc : int; object_type : int }
  | Extraneous_download of { proc : int; object_type : int }
  | Duplicate_download of { proc : int; object_type : int }
  | Not_held of { proc : int; object_type : int; server : int }
  | Compute_overload of { proc : int; load : float; capacity : float }
  | Nic_overload of { proc : int; load : float; capacity : float }
  | Server_card_overload of { server : int; load : float; capacity : float }
  | Server_link_overload of {
      server : int;
      proc : int;
      load : float;
      capacity : float;
    }
  | Proc_link_overload of {
      proc_a : int;
      proc_b : int;
      load : float;
      capacity : float;
    }

type view = {
  n_nodes : int;
  objects : Objects.t;
  needed : int -> int list;
  demand : int -> Demand.t;
  iter_streams : (int -> int -> float -> unit) -> unit;
}

let tolerance = 1e-9

let exceeds load capacity = load > capacity *. (1.0 +. tolerance) +. tolerance

let proc_demand app alloc u = Demand.of_group app (Alloc.operators_of alloc u)

let proc_download_rate app alloc u =
  List.fold_left
    (fun acc (k, _) -> acc +. App.download_rate app k)
    0.0
    (Alloc.downloads_of alloc u)

let pair_flow app alloc u v =
  let tree = App.tree app in
  let rho = App.rho app in
  let flow_into host other =
    (* Children of operators on [host] that live on [other]. *)
    List.fold_left
      (fun acc i ->
        List.fold_left
          (fun acc j ->
            if Alloc.assignment alloc j = Some other then
              acc +. (rho *. App.output_size app j)
            else acc)
          acc (Optree.children tree i))
      0.0
      (Alloc.operators_of alloc host)
  in
  flow_into u v +. flow_into v u

let structural_violations view platform alloc =
  let servers = platform.Platform.servers in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  for i = 0 to view.n_nodes - 1 do
    if Alloc.assignment alloc i = None then add (Unassigned_operator i)
  done;
  for u = 0 to Alloc.n_procs alloc - 1 do
    let needed = view.needed u in
    let planned = Alloc.downloads_of alloc u in
    let planned_types = List.map fst planned in
    List.iter
      (fun k ->
        if not (List.mem k planned_types) then
          add (Missing_download { proc = u; object_type = k }))
      needed;
    List.iter
      (fun (k, l) ->
        if not (List.mem k needed) then
          add (Extraneous_download { proc = u; object_type = k });
        if
          l < 0
          || l >= Servers.n_servers servers
          || not (Servers.holds servers l k)
        then add (Not_held { proc = u; object_type = k; server = l }))
      planned;
    (* The same object type downloaded from several servers doubles its
       NIC load; the plan is malformed even when each entry is valid. *)
    List.iter
      (fun k ->
        if List.length (List.filter (fun k' -> k' = k) planned_types) > 1
        then add (Duplicate_download { proc = u; object_type = k }))
      (List.sort_uniq compare planned_types)
  done;
  List.rev !acc

let capacity_violations view platform alloc =
  let servers = platform.Platform.servers in
  let n_procs = Alloc.n_procs alloc in
  let n_servers = Servers.n_servers servers in
  let acc = ref [] in
  let add v = acc := v :: !acc in
  (* One pass over every download plan yields each processor's NIC
     download term and each (server, processor) link load.  Each float
     cell receives its rates in plan order starting from 0.0, the order
     a per-server fold over the plan would sum them in; out-of-range
     servers (already reported as [Not_held]) load no link. *)
  let dl = Array.make n_procs 0.0 in
  let link = Array.make (n_servers * n_procs) 0.0 in
  let rec load_plan u = function
    | [] -> ()
    | (k, l) :: rest ->
      let rate = Objects.rate view.objects k in
      dl.(u) <- dl.(u) +. rate;
      if l >= 0 && l < n_servers then begin
        let c = (l * n_procs) + u in
        link.(c) <- link.(c) +. rate
      end;
      load_plan u rest
  in
  (* Constraints (1) and (2), per processor.  The NIC download term uses
     the actual download plan, which coincides with the demand's distinct
     object set once the plan is structurally valid. *)
  for u = 0 to n_procs - 1 do
    load_plan u (Alloc.downloads_of alloc u);
    let p = Alloc.proc alloc u in
    let d = view.demand u in
    let config = p.Alloc.config in
    if exceeds d.Demand.compute config.cpu.speed then
      add
        (Compute_overload
           { proc = u; load = d.Demand.compute; capacity = config.cpu.speed });
    let nic_load = dl.(u) +. d.Demand.comm_in +. d.Demand.comm_out in
    if exceeds nic_load config.nic.bandwidth then
      add
        (Nic_overload
           { proc = u; load = nic_load; capacity = config.nic.bandwidth })
  done;
  (* Constraints (3) and (4), per server (and per server-processor
     link). *)
  for l = 0 to n_servers - 1 do
    let total = ref 0.0 in
    for u = 0 to n_procs - 1 do
      let link_load = link.((l * n_procs) + u) in
      total := !total +. link_load;
      if exceeds link_load platform.Platform.server_link then
        add
          (Server_link_overload
             {
               server = l;
               proc = u;
               load = link_load;
               capacity = platform.Platform.server_link;
             })
    done;
    if exceeds !total (Servers.card servers l) then
      add
        (Server_card_overload
           { server = l; load = !total; capacity = Servers.card servers l })
  done;
  (* Constraint (5), per processor pair: one pass over the streams
     instead of probing all O(procs²) pairs.  Each directed accumulator
     receives its streams in the order the view yields them; pairs no
     stream touches carry zero flow and can never exceed the
     non-negative capacity.

     Directed pairs are encoded as [u * n_procs + v]: the encoding is
     monotone in lexicographic (u, v) order (v < n_procs), so sorting
     the encoded undirected pairs visits them in the same order as
     sorting the tuples — and int keys keep the hot inner loop free of
     tuple allocation and polymorphic-hash traversal. *)
  let enc u v = (u * n_procs) + v in
  let into : (int, float) Hashtbl.t = Hashtbl.create (4 * n_procs) in
  let pairs = ref [] in
  view.iter_streams (fun u v flow ->
      if (not (Hashtbl.mem into (enc u v))) && not (Hashtbl.mem into (enc v u))
      then pairs := enc (min u v) (max u v) :: !pairs;
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt into (enc u v)) in
      Hashtbl.replace into (enc u v) (prev +. flow));
  List.iter
    (fun key ->
      let u = key / n_procs and v = key mod n_procs in
      let directed a b =
        Option.value ~default:0.0 (Hashtbl.find_opt into (enc a b))
      in
      let flow = directed u v +. directed v u in
      if exceeds flow platform.Platform.proc_link then
        add
          (Proc_link_overload
             {
               proc_a = u;
               proc_b = v;
               load = flow;
               capacity = platform.Platform.proc_link;
             }))
    (List.sort_uniq compare !pairs);
  List.rev !acc

let check_view view platform alloc =
  let structural = structural_violations view platform alloc in
  structural @ capacity_violations view platform alloc

(* The tree is the one-application view: a processor receives one
   stream per tree edge whose child lives elsewhere, visited by host in
   ascending index order, members in list order and children in tree
   order — the order [pair_flow] sums them in, so the reported loads are
   bit-identical to it. *)
let check app platform alloc =
  let tree = App.tree app in
  let rho = App.rho app in
  let iter_streams f =
    for u = 0 to Alloc.n_procs alloc - 1 do
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              match Alloc.assignment alloc j with
              | Some v when v <> u -> f u v (rho *. App.output_size app j)
              | _ -> ())
            (Optree.children tree i))
        (Alloc.operators_of alloc u)
    done
  in
  check_view
    {
      n_nodes = App.n_operators app;
      objects = App.objects app;
      needed = (fun u -> Demand.distinct_objects app (Alloc.operators_of alloc u));
      demand = proc_demand app alloc;
      iter_streams;
    }
    platform alloc

let pp_violation ppf = function
  | Unassigned_operator i -> Format.fprintf ppf "operator n%d is unassigned" i
  | Missing_download { proc; object_type } ->
    Format.fprintf ppf "P%d misses a download source for o%d" proc object_type
  | Extraneous_download { proc; object_type } ->
    Format.fprintf ppf "P%d downloads o%d which no hosted operator needs" proc
      object_type
  | Duplicate_download { proc; object_type } ->
    Format.fprintf ppf
      "P%d downloads o%d from more than one server (NIC load double-counted)"
      proc object_type
  | Not_held { proc; object_type; server } ->
    Format.fprintf ppf "P%d downloads o%d from S%d which does not hold it" proc
      object_type server
  | Compute_overload { proc; load; capacity } ->
    Format.fprintf ppf "P%d compute overload: %.1f > %.1f Mops/s" proc load
      capacity
  | Nic_overload { proc; load; capacity } ->
    Format.fprintf ppf "P%d NIC overload: %.1f > %.1f MB/s" proc load capacity
  | Server_card_overload { server; load; capacity } ->
    Format.fprintf ppf "S%d card overload: %.1f > %.1f MB/s" server load
      capacity
  | Server_link_overload { server; proc; load; capacity } ->
    Format.fprintf ppf "link S%d->P%d overload: %.1f > %.1f MB/s" server proc
      load capacity
  | Proc_link_overload { proc_a; proc_b; load; capacity } ->
    Format.fprintf ppf "link P%d<->P%d overload: %.1f > %.1f MB/s" proc_a
      proc_b load capacity

let explain = function
  | [] -> "feasible"
  | violations ->
    String.concat "\n"
      (List.map (Format.asprintf "%a" pp_violation) violations)
