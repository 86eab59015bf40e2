module App = Insp_tree.App
module Platform = Insp_platform.Platform
module Alloc = Insp_mapping.Alloc
module Check = Insp_mapping.Check
module Cost = Insp_mapping.Cost
module Prng = Insp_util.Prng
module Obs = Insp_obs.Obs
module Journal = Insp_obs.Journal

type heuristic = {
  name : string;
  key : string;
  run :
    Prng.t -> App.t -> Platform.t -> (Builder.t, string) result;
  randomized : bool;
}

(* Comm-Greedy and Subtree-bottom-up take an optional ablation argument.
   Their entries apply all three arguments at once: a bare
   [H_comm_greedy.run] would be wrapped in a one-argument closure that
   allocates a partial application on every solve. *)
let all =
  [
    { name = "Random"; key = "random"; run = H_random.run; randomized = true };
    {
      name = "Comp-Greedy";
      key = "comp";
      run = H_comp_greedy.run;
      randomized = false;
    };
    {
      name = "Comm-Greedy";
      key = "comm";
      run = (fun rng app platform -> H_comm_greedy.run rng app platform);
      randomized = false;
    };
    {
      name = "Subtree-bottom-up";
      key = "sbu";
      run = (fun rng app platform -> H_subtree.run rng app platform);
      randomized = false;
    };
    {
      name = "Object-Grouping";
      key = "objgroup";
      run = H_object_grouping.run;
      randomized = false;
    };
    {
      name = "Object-Availability";
      key = "objavail";
      run = H_object_availability.run;
      randomized = false;
    };
  ]

let find ident =
  let ident = String.lowercase_ascii ident in
  (* lint: allow p3 — registry lookup over the paper's six heuristics *)
  List.find_opt
    (fun h -> h.key = ident || String.lowercase_ascii h.name = ident)
    all

type outcome = { alloc : Alloc.t; cost : float; n_procs : int }

type failure =
  | Placement of string
  | Server_selection of string
  | Validation of string

let failure_message = function
  | Placement m -> "placement failed: " ^ m
  | Server_selection m -> "server selection failed: " ^ m
  | Validation m -> "validation failed: " ^ m

let run ?(seed = 0) heuristic app platform =
  (* One span per pipeline stage; the counter pair records the overall
     outcome so sweep-level failure rates show up in metric exports. *)
  let count result =
    Obs.incr
      (match result with Ok _ -> "heur.solve.ok" | Error _ -> "heur.solve.fail");
    result
  in
  (* Journal guard computed once: [phase]/[failed] cost nothing when the
     installed sink is not journaling. *)
  let jn = Obs.journaling () in
  let phase stage =
    if jn then Obs.event (Journal.Phase { heuristic = heuristic.key; stage })
  in
  let failed status =
    if jn then
      Obs.event
        (Journal.Outcome
           {
             heuristic = heuristic.key;
             status;
             cost = None;
             n_procs = None;
             procs = [];
           })
  in
  Obs.span ("solve." ^ heuristic.key) (fun () ->
      let rng = Prng.create seed in
      phase "placement";
      match Obs.span "placement" (fun () -> heuristic.run rng app platform) with
      | Error msg ->
        failed "placement_failed";
        count (Error (Placement msg))
      | Ok builder -> (
        match Builder.finalize builder with
        | Error msg ->
          failed "placement_failed";
          count (Error (Placement msg))
        | Ok (groups, configs) -> (
          phase "server_select";
          let selection =
            Obs.span "server_select" (fun () ->
                if heuristic.randomized then
                  Server_select.random rng app platform ~groups
                else Server_select.sophisticated app platform ~groups)
          in
          match selection with
          | Error msg ->
            failed "server_select_failed";
            count (Error (Server_selection msg))
          | Ok downloads -> (
            let alloc = Alloc.of_groups ~configs ~groups ~downloads in
            phase "downgrade";
            let alloc =
              Obs.span "downgrade" (fun () -> Downgrade.run app platform alloc)
            in
            phase "check";
            match Obs.span "check" (fun () -> Check.check app platform alloc) with
            | [] ->
              let cost = Cost.of_alloc platform.Platform.catalog alloc in
              let n_procs = Alloc.n_procs alloc in
              if jn then
                (* [finalize] lists groups in acquisition order, which is
                   the processor index order of [Alloc.of_groups] — so
                   processor [i] came from builder group [group_ids.(i)],
                   the link [explain] follows back into builder events. *)
                Obs.event
                  (Journal.Outcome
                     {
                       heuristic = heuristic.key;
                       status = "feasible";
                       cost = Some cost;
                       n_procs = Some n_procs;
                       procs =
                         List.mapi
                           (fun i gid -> (i, gid))
                           (Builder.group_ids builder);
                     });
              count (Ok { alloc; cost; n_procs })
            | violations ->
              failed "infeasible";
              count (Error (Validation (Check.explain violations)))))))

let run_all ?(seed = 0) app platform =
  List.map (fun h -> (h, run ~seed h app platform)) all
