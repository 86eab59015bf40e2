(* Per-layer readings from a filled [Obs] sink: counters, span self
   times and [Obs.Prof] minor words that the library already records. *)

module Obs = Insp.Obs

let ratio a b = if b = 0.0 then 0.0 else a /. b

let counter (sink : Obs.t) name =
  float_of_int
    (Option.value ~default:0 (Insp.Obs_metrics.counter sink.Obs.metrics name))

let leaf path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let is_direct_child ~parent path =
  let prefix = parent ^ "/" in
  let lp = String.length prefix in
  String.length path > lp
  && String.sub path 0 lp = prefix
  && not (String.contains_from path lp '/')

let spans (sink : Obs.t) =
  List.filter
    (fun s -> not s.Insp.Obs_span.s_is_mark)
    (Insp.Obs_span.aggregate sink.Obs.spans)

(* Seconds spent in spans whose name satisfies [named], excluding the
   part of each interval their direct child spans cover. *)
let self_s sink ~named =
  let all = spans sink in
  List.fold_left
    (fun acc (s : Insp.Obs_span.summary) ->
      if named (leaf s.s_path) then
        let children =
          List.fold_left
            (fun c (k : Insp.Obs_span.summary) ->
              if is_direct_child ~parent:s.s_path k.s_path then
                c +. k.s_total_us
              else c)
            0.0 all
        in
        acc +. ((s.s_total_us -. children) /. 1e6)
      else acc)
    0.0 all

let total_s sink ~named =
  List.fold_left
    (fun acc (s : Insp.Obs_span.summary) ->
      if named (leaf s.s_path) then acc +. (s.s_total_us /. 1e6) else acc)
    0.0 (spans sink)

let prof_rows (sink : Obs.t) =
  match sink.Obs.prof with Some p -> Insp.Obs_prof.rows p | None -> []

(* Cumulative minor words under every frame called [name], counting a
   frame nested in a same-named frame only once. *)
let minor_words sink name =
  List.fold_left
    (fun acc (r : Insp.Obs_prof.row) ->
      let segs = String.split_on_char '/' r.path in
      let outer = List.filteri (fun i _ -> i < List.length segs - 1) segs in
      if leaf r.path = name && not (List.mem name outer) then
        acc +. r.cum_minor
      else acc)
    0.0 (prof_rows sink)

(* Share of the placement subtree's self minor words that carries a
   "ledger.*" frame: how much of the commit path the ledger accounts
   for. *)
let commit_share sink =
  let is_ledger seg =
    String.length seg >= 7 && String.sub seg 0 7 = "ledger."
  in
  let total, ledger =
    List.fold_left
      (fun (t, l) (r : Insp.Obs_prof.row) ->
        let segs = String.split_on_char '/' r.path in
        if List.mem "placement" segs then
          ( t +. r.self_minor,
            if List.exists is_ledger segs then l +. r.self_minor else l )
        else (t, l))
      (0.0, 0.0) (prof_rows sink)
  in
  ratio ledger total
