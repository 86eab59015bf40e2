(* The whole-program rules T1–T3 (DESIGN.md §14), evaluated on the
   {!Callgraph} + {!Effects} substrate.  Pure: loading and build-tree
   concerns live in {!Cmt_loader} / {!Driver}. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

let fmt_chain = function
  | [] -> ""
  | via -> Printf.sprintf " (via %s)" (String.concat " -> " via)

let decl_index (cg : Callgraph.t) =
  List.fold_left
    (fun m (d : Callgraph.decl) ->
      if SMap.mem d.Callgraph.id m then m else SMap.add d.Callgraph.id d m)
    SMap.empty cg.Callgraph.decls

(* ------------------------------------------------------------------ *)
(* T1: static race — a spawned closure reaches top-level mutable state  *)

let t1 (cg : Callgraph.t) (eff : Effects.t) =
  let decls = decl_index cg in
  let mutable_kind id =
    match SMap.find_opt id decls with
    | Some d -> d.Callgraph.mutable_def
    | None -> None
  in
  let decl_allows id rule =
    match SMap.find_opt id decls with
    | Some d -> List.mem rule d.Callgraph.d_allowed
    | None -> false
  in
  let touches_of_spawn (d : Callgraph.decl) (s : Callgraph.spawn) =
    let direct =
      List.filter_map
        (fun (r : Callgraph.gref) ->
          let kind = mutable_kind r.Callgraph.target in
          if r.Callgraph.write || kind <> None then
            Some
              {
                Effects.g = r.Callgraph.target;
                g_kind =
                  (match kind with Some k -> k | None -> "mutated state");
                t_at = r.Callgraph.at;
                via = [];
                t_write = r.Callgraph.write;
                t_allowed = r.Callgraph.r_allowed;
              }
          else None)
        s.Callgraph.body
    in
    let transitive =
      List.concat_map
        (fun (r : Callgraph.gref) ->
          match Effects.summary eff r.Callgraph.target with
          | None -> []
          | Some sm ->
            List.map
              (fun (t : Effects.touch) ->
                { t with Effects.via = r.Callgraph.target :: t.Effects.via })
              sm.Effects.touched)
        s.Callgraph.body
    in
    (* An opaque closure (a let-bound worker function we cannot resolve)
       may run any code of the enclosing declaration: fall back to the
       declaration's whole footprint. *)
    let fallback =
      if not s.Callgraph.opaque then []
      else
        match Effects.summary eff d.Callgraph.id with
        | None -> []
        | Some sm -> sm.Effects.touched
    in
    direct @ transitive @ fallback
  in
  List.concat_map
    (fun (d : Callgraph.decl) ->
      List.concat_map
        (fun (s : Callgraph.spawn) ->
          if List.mem Rule.T1 s.Callgraph.s_allowed then []
          else
            let touches = touches_of_spawn d s in
            (* dedupe per global, deterministically *)
            let by_g =
              List.fold_left
                (fun m (t : Effects.touch) ->
                  SMap.update t.Effects.g
                    (function
                      | None -> Some t
                      | Some prev ->
                        Some
                          (if
                             Effects.
                               (prev.t_write = t.t_write
                               && List.length t.via < List.length prev.via)
                             || ((not prev.Effects.t_write) && t.Effects.t_write)
                           then t
                           else prev))
                    m)
                SMap.empty touches
            in
            SMap.bindings by_g
            |> List.filter_map (fun (g, (t : Effects.touch)) ->
                   if
                     mutable_kind g = Some "Atomic.t"
                     (* Atomic is the sanctioned cross-domain cell *)
                     || List.mem Rule.T1 t.Effects.t_allowed
                     || decl_allows g Rule.T1
                   then None
                   else
                     Some
                       {
                         Rule.rule = Rule.T1;
                         file = s.Callgraph.at.Callgraph.file;
                         line = s.Callgraph.at.Callgraph.line;
                         col = s.Callgraph.at.Callgraph.col;
                         message =
                           Printf.sprintf
                             "Domain.spawn closure reaches top-level mutable \
                              state %s (%s)%s: cross-domain %s races; keep \
                              per-domain state in the closure and merge after \
                              join"
                             g t.Effects.g_kind
                             (fmt_chain t.Effects.via)
                             (if t.Effects.t_write then "write" else "access");
                       }))
        d.Callgraph.spawns)
    cg.Callgraph.decls

(* ------------------------------------------------------------------ *)
(* T2: determinism taint on engine-library entry points                 *)

let t2 (cg : Callgraph.t) (eff : Effects.t) =
  let decls = decl_index cg in
  List.filter_map
    (fun (e : Callgraph.export) ->
      let id = Callgraph.node_id ~unit_name:e.Callgraph.e_unit e.Callgraph.e_name in
      match SMap.find_opt id decls with
      | None -> None
      | Some d ->
        if not (Engine.engine_library d.Callgraph.at.Callgraph.file) then None
        else if
          List.mem Rule.T2 e.Callgraph.e_allowed
          || List.mem Rule.T2 d.Callgraph.d_allowed
        then None
        else (
          match Effects.summary eff id with
          | None | Some { Effects.nondet = None; _ } -> None
          | Some { Effects.nondet = Some w; _ } ->
            if List.mem Rule.T2 w.Effects.w_allowed then None
            else
              Some
                {
                  Rule.rule = Rule.T2;
                  file = d.Callgraph.at.Callgraph.file;
                  line = d.Callgraph.at.Callgraph.line;
                  col = d.Callgraph.at.Callgraph.col;
                  message =
                    Printf.sprintf
                      "exported %s reaches nondeterministic %s%s at %s:%d: \
                       engine outputs must be bit-reproducible — \
                       canonicalize with a sort, draw from the seeded Rng, \
                       or suppress with a justification"
                      id w.Effects.w_label
                      (fmt_chain w.Effects.w_via)
                      w.Effects.w_at.Callgraph.file w.Effects.w_at.Callgraph.line;
                }))
    cg.Callgraph.exports

(* ------------------------------------------------------------------ *)
(* T3: dead exports                                                     *)

let t3 (cg : Callgraph.t) =
  (* every (target, referencing unit) pair in the graph *)
  let referenced =
    List.fold_left
      (fun acc (d : Callgraph.decl) ->
        List.fold_left
          (fun acc (r : Callgraph.gref) ->
            SSet.add (r.Callgraph.target ^ "\x00" ^ d.Callgraph.unit_name) acc)
          acc d.Callgraph.refs)
      SSet.empty cg.Callgraph.decls
  in
  let used_elsewhere (e : Callgraph.export) =
    let id = Callgraph.node_id ~unit_name:e.Callgraph.e_unit e.Callgraph.e_name in
    SSet.exists
      (fun key ->
        match String.index_opt key '\x00' with
        | None -> false
        | Some i ->
          String.sub key 0 i = id
          && String.sub key (i + 1) (String.length key - i - 1)
             <> e.Callgraph.e_unit)
      referenced
  in
  List.filter_map
    (fun (e : Callgraph.export) ->
      if
        (not (Filename.check_suffix e.Callgraph.e_at.Callgraph.file ".mli"))
        || List.mem Rule.T3 e.Callgraph.e_allowed
        || used_elsewhere e
      then None
      else
        Some
          {
            Rule.rule = Rule.T3;
            file = e.Callgraph.e_at.Callgraph.file;
            line = e.Callgraph.e_at.Callgraph.line;
            col = e.Callgraph.e_at.Callgraph.col;
            message =
              Printf.sprintf
                "%s is exported by the .mli but referenced by no other \
                 compilation unit: narrow the interface (delete the value, \
                 or drop it from the .mli if its own module uses it)"
                (Callgraph.node_id ~unit_name:e.Callgraph.e_unit
                   e.Callgraph.e_name);
          })
    cg.Callgraph.exports

(* ------------------------------------------------------------------ *)

let analyze (cg : Callgraph.t) =
  let eff = Effects.analyze cg in
  t1 cg eff @ t2 cg eff @ t3 cg
  |> List.sort_uniq (fun a b ->
         let c = Rule.compare_finding a b in
         if c <> 0 then c
         else String.compare a.Rule.message b.Rule.message)
