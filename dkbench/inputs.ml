(* Everything the benchmark sends, generated in-process from the pinned
   dataset and the workload seed; the server only ever sees the
   requests.

   The dataset is [Dataset.make ~scale ()] (its own seed pinned at 1),
   so a seed changes the order of requests and the written edges, not
   the data: runs on different seeds stay comparable. *)

open Dkindex_graph
open Dkindex_core
module Path_ast = Dkindex_pathexpr.Path_ast
module Path_parser = Dkindex_pathexpr.Path_parser
module Prng = Dkindex_datagen.Prng
module Wire = Dkindex_server.Wire
module Wal = Dkindex_server.Wal

type query = Path of string list | Planned of string list * Path_ast.t

(* The query mix: the 100 pinned label paths, each sent as Query_path,
   and every fourth of them sent again as Query_planned, parsed from its
   concrete syntax (so the mix is 100/125 = 80% Query_path and
   25/125 = 20% Query_planned).  The planned copies load Path_parser
   and the Planner; their answers must equal the label path's. *)
let mix (ds : Dkindex_server.Dataset.t) =
  let planned =
    List.concat
      (List.mapi (fun i p -> if i mod 4 <> 0 then [] else [ Planned (p, Path_parser.parse (String.concat "." p)) ]) ds.queries)
  in
  Array.of_list (List.map (fun p -> Path p) ds.queries @ planned)

let flags = { Wire.no_cache = false }

let request = function
  | Path labels -> Wire.Query_path { flags; labels }
  | Planned (_, expr) -> Wire.Query_planned { flags; expr }

(* Reference answer: [Query_eval] on the benchmark's own copy. *)
let answer idx = function
  | Path labels | Planned (labels, _) -> Array.of_list (Query_eval.eval_path_strings idx labels).nodes

let answers idx queries = Array.map (answer idx) queries

(* The nodes a reply carries, or [None] for a refusal/error reply. *)
let reply_nodes = function
  | Wire.Result r -> Some r.nodes
  | Wire.Planned_result { result; _ } -> Some result.nodes
  | _ -> None

let reply_generation = function
  | Wire.Result r -> r.generation
  | Wire.Planned_result { result; _ } -> result.generation
  | _ -> -1

(* The order the reader sends queries in: rounds
   over the whole mix, each round in a fresh order drawn from the
   workload seed.  Every query is sent equally often, so the seed
   changes the order and not the mix. *)
let picker ~seed n =
  let rng = Prng.create ~seed:(seed * 7919) in
  let order = Array.init n Fun.id and i = ref n in
  fun () ->
    if !i = n then begin
      Prng.shuffle rng order;
      i := 0
    end;
    incr i;
    order.(!i - 1)

(* Distinct ID/IDREF edges absent from [g], drawn from the seed.
   Unlike [Dataset.update_edges] this never repeats a pair and never
   picks an existing edge, so adding then removing each one always
   succeeds and returns the graph to its base state. *)
let fresh_edges g ~seed ~count =
  let rng = Prng.create ~seed in
  let pool = Data_graph.pool g in
  let nodes name =
    match Label.Pool.find_opt pool name with
    | Some l -> Array.of_list (Data_graph.nodes_with_label g l)
    | None -> [||]
  in
  let groups =
    Dkindex_datagen.Xmark.ref_pairs
    |> List.map (fun (s, d) -> (nodes s, nodes d))
    |> List.filter (fun (s, d) -> Array.length s > 0 && Array.length d > 0)
    |> Array.of_list
  in
  let seen = Hashtbl.create count in
  let rec draw acc k tries =
    if k = count then List.rev acc
    else if tries > 1000 * count then failwith "fresh_edges: graph too small"
    else
      let srcs, dsts = Prng.choose rng groups in
      let e = (Prng.choose rng srcs, Prng.choose rng dsts) in
      if Hashtbl.mem seen e || Data_graph.has_edge g (fst e) (snd e) then draw acc k (tries + 1)
      else begin
        Hashtbl.add seen e ();
        draw (e :: acc) (k + 1) (tries + 1)
      end
  in
  draw [] 0 0

(* write-s2000's stream: add e1, remove e1, add e2, remove e2, ... *)
let add_remove_pairs edges =
  List.concat_map (fun (u, v) -> [ Wal.Add_edge { u; v }; Wal.Remove_edge { u; v } ]) edges

(* recover-s2000's WAL tail: 250 additions, then 150 of them removed,
   so the recovered state differs from the base state. *)
let wal_tail g ~seed =
  let edges = fresh_edges g ~seed ~count:250 in
  List.map (fun (u, v) -> Wal.Add_edge { u; v }) edges
  @ List.filteri (fun i _ -> i < 150) (List.map (fun (u, v) -> Wal.Remove_edge { u; v }) edges)

let write_request = function
  | Wal.Add_edge { u; v } -> Wire.Add_edge { u; v }
  | Wal.Remove_edge { u; v } -> Wire.Remove_edge { u; v }
  | _ -> invalid_arg "write_request"
