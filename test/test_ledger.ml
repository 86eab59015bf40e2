(* Tests for the incremental demand/feasibility ledger.  The heart is
   the randomized consistency test: after *every* edit of a random edit
   sequence, [Ledger.assert_consistent] cross-validates the incremental
   state against the from-scratch [Check.check] oracle.  A second
   property checks the probe verdicts themselves against a from-scratch
   prober over a greedy first-fit construction. *)

module App = Insp.App
module Alloc = Insp.Alloc
module Demand = Insp.Demand
module Check = Insp.Check
module Ledger = Insp.Ledger
module Catalog = Insp.Catalog
module Platform = Insp.Platform
module Servers = Insp.Servers
module Objects = Insp.Objects
module Prng = Insp.Prng

let qtest = Helpers.qtest

let cfg ?(cpu = 4) ?(nic = 4) () =
  let c = Catalog.dell_2008 in
  { Catalog.cpu = (Catalog.cpus c).(cpu); nic = (Catalog.nics c).(nic) }

let tiny_env () = (Helpers.tiny_app (), Helpers.tiny_platform ())

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)

let test_of_alloc_matches_oracle () =
  let app, platform = tiny_env () in
  let alloc =
    Alloc.make
      [|
        {
          Alloc.config = cfg ();
          operators = [ 0; 1 ];
          downloads = [ (0, 0); (1, 0) ];
        };
        {
          Alloc.config = cfg ();
          operators = [ 2; 3 ];
          downloads = [ (0, 1); (2, 1) ];
        };
      |]
  in
  let t = Ledger.of_alloc app platform alloc in
  Ledger.assert_consistent t;
  Alcotest.(check int) "two procs" 2 (Ledger.n_procs t);
  let d = Ledger.demand t 0 and d' = Demand.of_group app [ 0; 1 ] in
  Helpers.alco_float "compute" d'.Demand.compute d.Demand.compute;
  Helpers.alco_float "download" d'.Demand.download d.Demand.download;
  Helpers.alco_float "comm in" d'.Demand.comm_in d.Demand.comm_in;
  Helpers.alco_float "comm out" d'.Demand.comm_out d.Demand.comm_out;
  Helpers.alco_float "pair flow" (Check.pair_flow app alloc 0 1)
    (Ledger.pair_flow t 0 1)

let test_exact_zero_after_undo () =
  let app, platform = tiny_env () in
  let t = Ledger.create app platform in
  let u = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t u i) [ 0; 1; 2; 3 ];
  List.iter
    (fun (k, l) -> Ledger.add_download t u ~obj:k ~server:l)
    [ (0, 0); (1, 0); (2, 1) ];
  List.iter
    (fun (k, l) -> Ledger.remove_download t u ~obj:k ~server:l)
    [ (0, 0); (1, 0); (2, 1) ];
  List.iter (fun i -> Ledger.remove_operator t i) [ 0; 1; 2; 3 ];
  (* Strict equality on purpose: the empty group must reset to exact
     zero, not to accumulated float residue. *)
  Alcotest.(check bool) "compute is exact zero" true
    (* lint: allow f1 — exact-zero reset is the property under test *)
    (Ledger.compute_load t u = 0.0);
  (* lint: allow f1 — exact-zero reset is the property under test *)
  Alcotest.(check bool) "nic is exact zero" true (Ledger.nic_load t u = 0.0);
  Ledger.assert_consistent t

let test_probe_add_predicts_commit () =
  let app, platform = tiny_env () in
  let t = Ledger.create app platform in
  let u = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t u 0;
  let v = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t v 2;
  (* n3 is a child of n2 (on v); probing it onto u must predict the new
     demand and the changed (u, v) pair flow, without mutating. *)
  let probe = Ledger.probe_add t u 3 in
  let before = Ledger.demand t u in
  Alcotest.(check bool) "no mutation" true
    (Ledger.demand t u = before && Ledger.assignment t 3 = None);
  Ledger.add_operator t u 3;
  let after = Ledger.demand t u in
  Helpers.alco_float "compute" after.Demand.compute probe.Ledger.demand.Demand.compute;
  Helpers.alco_float "download" after.Demand.download probe.Ledger.demand.Demand.download;
  Helpers.alco_float "comm in" after.Demand.comm_in probe.Ledger.demand.Demand.comm_in;
  Helpers.alco_float "comm out" after.Demand.comm_out probe.Ledger.demand.Demand.comm_out;
  (match probe.Ledger.pair_flows with
  | [ (v', f) ] ->
    Alcotest.(check int) "pair is (u, v)" v v';
    Helpers.alco_float "pair flow" (Ledger.pair_flow t u v) f
  | l ->
    Alcotest.failf "expected one changed pair, got %d" (List.length l));
  Ledger.assert_consistent t

let test_violations_touching_anchored () =
  let app, platform = tiny_env () in
  let t = Ledger.create app platform in
  let u = Ledger.add_proc t (cfg ()) in
  Ledger.add_operator t u 1;
  (* n1 needs o0 and o1: no plan yet -> two missing downloads. *)
  Ledger.add_download t u ~obj:0 ~server:5;
  (* invalid server *)
  let vs = Ledger.violations_touching t [ u ] in
  let has pred = List.exists pred vs in
  Alcotest.(check bool) "not held" true
    (has (function
      | Check.Not_held { object_type = 0; server = 5; _ } -> true
      | _ -> false));
  Alcotest.(check bool) "missing o1" true
    (has (function
      | Check.Missing_download { object_type = 1; _ } -> true
      | _ -> false));
  (* Same object from a second (valid) server: duplicate. *)
  Ledger.add_download t u ~obj:0 ~server:0;
  Alcotest.(check bool) "duplicate" true
    (List.exists
       (function
         | Check.Duplicate_download { object_type = 0; _ } -> true
         | _ -> false)
       (Ledger.violations_touching t [ u ]));
  Ledger.assert_consistent t

let test_merge_consistent () =
  let app, platform = tiny_env () in
  let t = Ledger.create app platform in
  let u = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t u i) [ 0; 1 ];
  let v = Ledger.add_proc t (cfg ()) in
  List.iter (fun i -> Ledger.add_operator t v i) [ 2; 3 ];
  Ledger.merge t ~winner:u ~loser:v;
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Ledger.operators_of t u);
  Alcotest.(check bool) "loser gone" false (Ledger.mem_proc t v);
  Helpers.alco_float "internal edges cancel" 0.0
    (let d = Ledger.demand t u in
     d.Demand.comm_in +. d.Demand.comm_out);
  Ledger.assert_consistent t

(* ------------------------------------------------------------------ *)
(* Randomized edit-sequence consistency vs the oracle                  *)

let apply_random_edit t rng ~n_ops ~n_types ~n_servers ~configs =
  let live = Ledger.proc_ids t in
  let unassigned =
    List.filter (fun i -> Ledger.assignment t i = None) (List.init n_ops Fun.id)
  in
  let assigned =
    List.filter (fun i -> Ledger.assignment t i <> None) (List.init n_ops Fun.id)
  in
  match Prng.int rng 10 with
  | 0 when List.length live < 6 ->
    ignore (Ledger.add_proc t (Prng.choose_list rng configs))
  | 1 when live <> [] -> Ledger.remove_proc t (Prng.choose_list rng live)
  | (2 | 3 | 4) when live <> [] && unassigned <> [] ->
    Ledger.add_operator t (Prng.choose_list rng live)
      (Prng.choose_list rng unassigned)
  | 5 when assigned <> [] ->
    Ledger.remove_operator t (Prng.choose_list rng assigned)
  | (6 | 7) when live <> [] ->
    let u = Prng.choose_list rng live in
    let obj = Prng.int rng n_types in
    (* One edit in ten aims at a nonexistent server: Not_held plus NIC
       load without card/link load, the asymmetry the oracle encodes. *)
    let server =
      if Prng.int rng 10 = 0 then n_servers else Prng.int rng n_servers
    in
    Ledger.add_download t u ~obj ~server
  | 8 when live <> [] ->
    let u = Prng.choose_list rng live in
    (match Ledger.downloads_of t u with
    | [] -> ()
    | dls ->
      let k, l = Prng.choose_list rng dls in
      Ledger.remove_download t u ~obj:k ~server:l)
  | 9 when List.length live >= 2 -> (
    match Prng.shuffle_list rng live with
    | winner :: loser :: _ ->
      if Prng.bool rng then Ledger.merge t ~winner ~loser
      else Ledger.set_config t winner (Prng.choose_list rng configs)
    | _ -> ())
  | _ -> ()

let ledger_matches_oracle =
  qtest ~count:120 "ledger violation set matches Check.check after every edit"
    Helpers.instance_case (fun case ->
      let inst = Helpers.instance_of_case case in
      let app = inst.Insp.Instance.app in
      let platform = inst.Insp.Instance.platform in
      let seed, _, _ = case in
      let rng = Prng.create (seed + 7919) in
      let n_ops = App.n_operators app in
      let n_types = Objects.count (App.objects app) in
      let n_servers = Servers.n_servers platform.Platform.servers in
      let configs = Catalog.configs platform.Platform.catalog in
      let t = Ledger.create app platform in
      (try
         for _ = 1 to 3 + Prng.int rng 3 do
           ignore (Ledger.add_proc t (Prng.choose_list rng configs))
         done;
         for _ = 1 to 30 do
           apply_random_edit t rng ~n_ops ~n_types ~n_servers ~configs;
           Ledger.assert_consistent t
         done
       with Failure msg -> QCheck.Test.fail_report msg);
      true)

(* ------------------------------------------------------------------ *)
(* Probe verdicts vs the pre-ledger from-scratch prober                *)

(* Recomputes [Demand.of_group] over the candidate member set and the
   pairwise flow towards every other live group with [List.mem]
   membership scans, as the solver did before the ledger. *)
let from_scratch_fits app platform groups ~self ~cfg ~members =
  let tree = App.tree app and rho = App.rho app in
  let flow h =
    List.fold_left
      (fun acc m ->
        let acc =
          List.fold_left
            (fun acc c ->
              if List.mem c h then acc +. (rho *. App.output_size app c)
              else acc)
            acc (Insp.Optree.children tree m)
        in
        match Insp.Optree.parent tree m with
        | Some p when List.mem p h -> acc +. (rho *. App.output_size app m)
        | Some _ | None -> acc)
      0.0 members
  in
  let leq v cap = v <= (cap *. (1.0 +. 1e-9)) +. 1e-9 in
  Demand.fits cfg (Demand.of_group app members)
  && List.for_all
       (fun (gid, h) -> gid = self || leq (flow h) platform.Platform.proc_link)
       groups

(* Greedy first fit in operator-id order: each operator is probed
   against every live group through [Builder.try_add], else gets a new
   most-expensive processor.  Every ledger verdict must equal the
   from-scratch one; returns the first disagreement, if any. *)
let first_fit_divergence inst =
  let app = inst.Insp.Instance.app and platform = inst.Insp.Instance.platform in
  let best = Catalog.best platform.Platform.catalog in
  let b = Insp.Builder.create app platform in
  let divergence = ref None in
  let agree what ~ledger ~scratch =
    if ledger <> scratch && !divergence = None then
      divergence :=
        Some
          (Printf.sprintf "%s: ledger %b, from scratch %b" what ledger scratch);
    ledger
  in
  for i = 0 to App.n_operators app - 1 do
    let groups =
      List.map
        (fun gid -> (gid, Insp.Builder.members b gid))
        (Insp.Builder.group_ids b)
    in
    let placed =
      List.exists
        (fun (gid, members) ->
          let scratch =
            from_scratch_fits app platform groups ~self:gid
              ~cfg:(Insp.Builder.config b gid) ~members:(i :: members)
          in
          agree
            (Printf.sprintf "operator %d into group %d" i gid)
            ~ledger:(Insp.Builder.try_add b gid i) ~scratch)
        groups
    in
    if not placed then
      ignore
        (agree
           (Printf.sprintf "operator %d on a new processor" i)
           ~ledger:
             (Result.is_ok (Insp.Builder.acquire b ~config:best ~members:[ i ]))
           ~scratch:
             (from_scratch_fits app platform groups ~self:(-1) ~cfg:best
                ~members:[ i ]))
  done;
  !divergence

let test_first_fit_reference_instance () =
  let inst =
    Insp.Instance.generate
      (Insp.Config.make ~n_operators:100 ~alpha:0.9 ~seed:1 ())
  in
  Alcotest.(check (option string))
    "no divergence" None (first_fit_divergence inst)

(* Large objects make the processor-link check bind; with small ones
   only the compute/NIC side ever rejects. *)
let first_fit_matches_from_scratch =
  qtest ~count:100 "first-fit probe verdicts match the from-scratch prober"
    QCheck.(pair Helpers.instance_case bool)
    (fun (case, large) ->
      let sizes = if large then Insp.Config.Large else Insp.Config.Small in
      match first_fit_divergence (Helpers.instance_of_case ~sizes case) with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

let () =
  Alcotest.run "ledger"
    [
      ( "unit",
        [
          Alcotest.test_case "of_alloc matches oracle" `Quick
            test_of_alloc_matches_oracle;
          Alcotest.test_case "exact zero after undo" `Quick
            test_exact_zero_after_undo;
          Alcotest.test_case "probe predicts commit" `Quick
            test_probe_add_predicts_commit;
          Alcotest.test_case "violations_touching" `Quick
            test_violations_touching_anchored;
          Alcotest.test_case "merge" `Quick test_merge_consistent;
        ] );
      ("random", [ ledger_matches_oracle ]);
      ( "probe",
        [
          Alcotest.test_case "first fit, N=100 reference instance" `Quick
            test_first_fit_reference_instance;
          first_fit_matches_from_scratch;
        ] );
    ]
