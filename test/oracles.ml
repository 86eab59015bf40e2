(* Reference forms of two placement heuristics (DESIGN.md §16).

   The library runs Comp-Greedy from candidate queues and sweeps
   Comm-Greedy's case-(iii) merges through a failed-probe cache.  Both
   may only skip probes that are certain to fail, so each must commit
   exactly the solution of the plain loop below; test_scale checks that
   on 200 random instances. *)

module App = Insp.App
module Optree = Insp.Optree
module Builder = Insp_heuristics.Builder
module Common = Insp_heuristics.Common

(* Comp-Greedy as the paper states it: every round resorts the
   unassigned pool by work, buys a most-expensive processor for the
   heaviest operator (with the grouping fallback) and probes every
   remaining candidate during fill. *)
let comp_greedy_scan _rng app platform =
  let b = Builder.create app platform in
  (* The grouping fallback can sell a processor and release its
     operators, so bound the number of rounds to guarantee
     termination. *)
  let budget = ref ((App.n_operators app * App.n_operators app) + 16) in
  let rec loop () =
    match Common.by_work_desc app (Builder.unassigned b) with
    | [] -> Ok b
    | heaviest :: _ ->
      decr budget;
      if !budget <= 0 then
        Error "placement did not converge (grouping fallback oscillates)"
      else (
        match Common.acquire_with_grouping b ~style:`Best heaviest with
        | Error e -> Error e
        | Ok gid ->
          Common.fill b gid (Common.by_work_desc app (Builder.unassigned b));
          loop ())
  in
  loop ()

(* Comm-Greedy whose merge sweeps re-probe every cross-processor edge on
   every sweep, with no failed-probe cache. *)
let comm_greedy_uncached _rng app platform =
  let b = Builder.create app platform in
  let tree = App.tree app in
  let edges =
    List.init (App.n_operators app) Fun.id
    |> List.filter_map (fun i ->
           Option.map
             (fun p -> (i, p, App.rho app *. App.output_size app i))
             (Optree.parent tree i))
    |> List.sort (fun (a, _, wa) (b, _, wb) ->
           let c = compare wb wa in
           if c <> 0 then c else compare a b)
  in
  let acquire style ops = Common.acquire_for b ~style ops |> Result.map ignore in
  let merge gi gp =
    Builder.try_absorb_upgrade b gi gp || Builder.try_absorb_upgrade b gp gi
  in
  let next_to host op =
    if Builder.try_add_upgrade b host op then Ok () else acquire `Best [ op ]
  in
  let step (i, p, _) =
    match (Builder.assignment b i, Builder.assignment b p) with
    | None, None -> (
      match acquire `Cheapest [ i; p ] with
      | Ok () -> Ok ()
      | Error _ ->
        Result.bind (acquire `Best [ i ]) (fun () -> acquire `Best [ p ]))
    | Some gi, None -> next_to gi p
    | None, Some gp -> next_to gp i
    | Some gi, Some gp ->
      if gi <> gp then ignore (merge gi gp);
      Ok ()
  in
  let rec sweep budget =
    if budget > 0 then begin
      let changed =
        List.fold_left
          (fun changed (i, p, _) ->
            match (Builder.assignment b i, Builder.assignment b p) with
            | Some gi, Some gp when gi <> gp -> merge gi gp || changed
            | _ -> changed)
          false edges
      in
      if changed then sweep (budget - 1)
    end
  in
  let rec place = function
    | [] -> Ok b
    | op :: rest ->
      Result.bind (acquire `Cheapest [ op ]) (fun () -> place rest)
  in
  let rec handle = function
    | [] ->
      sweep (App.n_operators app);
      place (Builder.unassigned b)
    | edge :: rest -> Result.bind (step edge) (fun () -> handle rest)
  in
  handle edges
