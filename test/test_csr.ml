(* Golden-equivalence tests for the CSR memory layout: the flat-array
   Data_graph and the array-extent Index_graph must behave exactly like
   the original list-based structures.  A naive edge-set model plays
   the role of the seed implementation for adjacency; the seed's
   list-key refinement is re-implemented here as the oracle for the
   hash-signature Kbisim. *)

open Dkindex_graph
open Dkindex_core
module Prng = Dkindex_datagen.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_int_list = Alcotest.(check (list int))

let test name f = Alcotest.test_case name `Quick f

let random_graph ~seed ~nodes =
  Dkindex_datagen.Random_graph.graph ~seed ~nodes ~n_labels:6
    ~extra_edges:(nodes / 3) ()

(* ------------------------------------------------------------------ *)
(* Reference adjacency model: a plain edge set *)

module Model = struct
  type t = { mutable edges : (int * int, unit) Hashtbl.t; n : int }

  let of_graph g =
    let edges = Hashtbl.create 256 in
    Data_graph.iter_edges g (fun u v -> Hashtbl.replace edges (u, v) ());
    { edges; n = Data_graph.n_nodes g }

  let copy m = { m with edges = Hashtbl.copy m.edges }
  let has_edge m u v = Hashtbl.mem m.edges (u, v)
  let add_edge m u v = Hashtbl.replace m.edges (u, v) ()
  let remove_edge m u v = Hashtbl.remove m.edges (u, v)
  let n_edges m = Hashtbl.length m.edges

  let children m u =
    List.sort compare
      (Hashtbl.fold (fun (a, b) () acc -> if a = u then b :: acc else acc) m.edges [])

  let parents m v =
    List.sort compare
      (Hashtbl.fold (fun (a, b) () acc -> if b = v then a :: acc else acc) m.edges [])
end

let collect_iter iter = List.rev (iter (fun acc x -> x :: acc) [])

let check_node_against_model g m u =
  let tag fmt = Printf.sprintf fmt u in
  check_int_list (tag "children of %d") (Model.children m u) (Data_graph.children g u);
  check_int_list (tag "parents of %d") (Model.parents m u) (Data_graph.parents g u);
  check_int (tag "out_degree of %d")
    (List.length (Model.children m u))
    (Data_graph.out_degree g u);
  check_int (tag "in_degree of %d") (List.length (Model.parents m u)) (Data_graph.in_degree g u);
  (* iterators visit the same neighbors as the materialized lists, in
     the same increasing order, pending overflow entries included *)
  let via_iter f = collect_iter (fun g' init -> let acc = ref init in f (fun x -> acc := g' !acc x); !acc) in
  check_int_list (tag "iter_children of %d")
    (Data_graph.children g u)
    (via_iter (Data_graph.iter_children g u));
  check_int_list (tag "iter_parents of %d")
    (Data_graph.parents g u)
    (via_iter (Data_graph.iter_parents g u))

let check_graph_against_model g m =
  check_int "n_edges" (Model.n_edges m) (Data_graph.n_edges g);
  for u = 0 to Data_graph.n_nodes g - 1 do
    check_node_against_model g m u
  done

(* Drive a graph and its model through a random update sequence long
   enough to cross the CSR rebuild threshold several times. *)
let churn ~seed ~rounds g m =
  let rng = Prng.create ~seed in
  let n = Data_graph.n_nodes g in
  for round = 1 to rounds do
    let u = Prng.int rng n and v = Prng.int rng n in
    if Prng.bool rng 0.6 then begin
      (* add (possibly a duplicate: must be a no-op) *)
      Data_graph.add_edge g u v;
      Model.add_edge m u v
    end
    else if Model.has_edge m u v then begin
      Data_graph.remove_edge g u v;
      Model.remove_edge m u v
    end
    else
      (* removing an absent edge must raise and change nothing *)
      Alcotest.check_raises "remove absent raises"
        (Invalid_argument (Printf.sprintf "Data_graph.remove_edge: no edge (%d, %d)" u v))
        (fun () -> Data_graph.remove_edge g u v);
    (* spot-check both endpoints every round, everything occasionally *)
    check_bool "has_edge" (Model.has_edge m u v) (Data_graph.has_edge g u v);
    check_node_against_model g m u;
    check_node_against_model g m v;
    if round mod 50 = 0 then check_graph_against_model g m
  done;
  check_graph_against_model g m

(* ------------------------------------------------------------------ *)
(* The overflow layer read as it stands *)

(* A graph, its model, and the edge set its CSR holds: the model as of
   the last moment the overflow layer was empty.  An add or remove
   that trips the amortized rebuild leaves the overflow empty, so this
   tracks every fold exactly without looking inside. *)
type overflow_state = {
  g : Data_graph.t;
  m : Model.t;
  mutable base : (int * int, unit) Hashtbl.t;
}

let edges_where tbl pred =
  List.sort compare (Hashtbl.fold (fun e () acc -> if pred e then e :: acc else acc) tbl [])

let tombstones st = edges_where st.base (fun e -> not (Hashtbl.mem st.m.Model.edges e))

(* Every per-node observer against the model's neighbor lists (built
   once per check), [has_edge] on every live edge, every tombstoned
   one and a band of ids around the diagonal (absent pairs included),
   and the overflow size against the model's view of the layer. *)
let check_overflow_state st =
  let g = st.g and n = Data_graph.n_nodes st.g in
  Data_graph.check_invariants g;
  check_int "n_edges" (Model.n_edges st.m) (Data_graph.n_edges g);
  let kids = Array.make n [] and pars = Array.make n [] in
  List.iter
    (fun (u, v) ->
      kids.(u) <- v :: kids.(u);
      pars.(v) <- u :: pars.(v))
    (List.rev (edges_where st.m.Model.edges (fun _ -> true)));
  (* Walks come out in increasing order, as from a folded run. *)
  let iterated iter u =
    let seen = ref [] in
    iter g u (fun x -> seen := x :: !seen);
    List.rev !seen
  in
  let exists_visits exists u =
    let seen = ref [] in
    if exists g u (fun x -> seen := x :: !seen; false) then
      Alcotest.failf "never-true exists held on %d" u;
    List.rev !seen
  in
  let same what u want got =
    if want <> got then
      Alcotest.failf "%s of %d: want [%s], got [%s]" what u
        (String.concat "; " (List.map string_of_int want))
        (String.concat "; " (List.map string_of_int got))
  in
  for u = 0 to n - 1 do
    same "children" u kids.(u) (Data_graph.children g u);
    same "parents" u pars.(u) (Data_graph.parents g u);
    same "out_degree" u [ List.length kids.(u) ] [ Data_graph.out_degree g u ];
    same "in_degree" u [ List.length pars.(u) ] [ Data_graph.in_degree g u ];
    same "iter_children" u kids.(u) (iterated Data_graph.iter_children u);
    same "iter_parents" u pars.(u) (iterated Data_graph.iter_parents u);
    same "exists_children visits" u kids.(u) (exists_visits Data_graph.exists_children u);
    same "exists_parents visits" u pars.(u) (exists_visits Data_graph.exists_parents u);
    List.iter
      (fun x ->
        if not (Data_graph.exists_children g u (fun c -> c = x)) then
          Alcotest.failf "exists_children missed %d -> %d" u x)
      kids.(u);
    List.iter
      (fun x ->
        if not (Data_graph.exists_parents g u (fun p -> p = x)) then
          Alcotest.failf "exists_parents missed %d -> %d" x u)
      pars.(u)
  done;
  let has (u, v) =
    if Data_graph.has_edge g u v <> Model.has_edge st.m u v then
      Alcotest.failf "has_edge (%d, %d)" u v
  in
  Hashtbl.iter (fun e () -> has e) st.m.Model.edges;
  List.iter has (tombstones st);
  for u = 0 to n - 1 do
    for d = -2 to 2 do
      has (u, (u + d + n) mod n)
    done
  done;
  let added = edges_where st.m.Model.edges (fun e -> not (Hashtbl.mem st.base e)) in
  check_int "overflow_size = overflow edges + tombstones"
    (List.length added + List.length (tombstones st))
    (Data_graph.overflow_size g)

(* One step aimed at one kind of overflow entry: add a fresh edge,
   re-add a tombstoned one, remove a CSR edge, or remove an overflow
   edge.  Steps with no target of their kind do nothing. *)
let overflow_step rng st kind =
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (Prng.int rng (List.length l)))
  in
  let in_model e = Hashtbl.mem st.m.Model.edges e and in_base e = Hashtbl.mem st.base e in
  let n = Data_graph.n_nodes st.g in
  let target =
    match kind with
    | `Add_fresh ->
      let rec fresh tries =
        let e = (Prng.int rng n, Prng.int rng n) in
        if not (in_model e || in_base e) then Some e
        else if tries = 0 then None
        else fresh (tries - 1)
      in
      fresh 20
    | `Readd_tombstoned -> pick (tombstones st)
    | `Remove_csr -> pick (edges_where st.base in_model)
    | `Remove_overflow -> pick (edges_where st.m.Model.edges (fun e -> not (in_base e)))
  in
  Option.iter
    (fun (u, v) ->
      (match kind with
      | `Add_fresh | `Readd_tombstoned ->
        Data_graph.add_edge st.g u v;
        Model.add_edge st.m u v
      | `Remove_csr | `Remove_overflow ->
        Data_graph.remove_edge st.g u v;
        Model.remove_edge st.m u v);
      if Data_graph.overflow_size st.g = 0 then st.base <- Hashtbl.copy st.m.Model.edges)
    target

let random_overflow_step rng st =
  overflow_step rng st
    (match Prng.int rng 4 with
    | 0 -> `Add_fresh
    | 1 -> `Readd_tombstoned
    | 2 -> `Remove_csr
    | _ -> `Remove_overflow)

(* Churn with [copy] at random points.  Each copy is taken with a
   tombstone live; then the original and the copy are mutated in turn,
   and each must still match its own model. *)
let overflow_churn ~seed ~steps g =
  let rng = Prng.create ~seed in
  let m = Model.of_graph g in
  let st = ref { g; m; base = Hashtbl.copy m.Model.edges } in
  check_overflow_state !st;
  let copies = ref 0 in
  for _ = 1 to steps do
    if Prng.int rng 12 = 0 then begin
      overflow_step rng !st `Remove_csr;
      check_bool "a tombstone is live at the copy" true (tombstones !st <> []);
      let orig = !st in
      let c = { g = Data_graph.copy orig.g; m = Model.copy orig.m; base = Hashtbl.copy orig.base } in
      check_overflow_state c;
      for _ = 1 to 3 do random_overflow_step rng orig done;
      check_overflow_state orig;
      check_overflow_state c;
      for _ = 1 to 3 do random_overflow_step rng c done;
      check_overflow_state orig;
      check_overflow_state c;
      st := c;
      incr copies
    end
    else begin
      random_overflow_step rng !st;
      check_overflow_state !st
    end
  done;
  check_bool "copies taken" true (!copies > 0)

let graph_cases =
  [
    test "overflow layer matches the edge-set model through churn and copies" (fun () ->
        List.iter
          (fun seed -> overflow_churn ~seed:(seed + 1000) ~steps:250 (random_graph ~seed ~nodes:60))
          [ 14; 15; 16 ];
        overflow_churn ~seed:1017 ~steps:120 (Dkindex_datagen.Xmark.graph ~seed:9 ~scale:2 ()));
    test "random graphs match the edge-set model through churn" (fun () ->
        List.iter
          (fun seed ->
            let g = random_graph ~seed ~nodes:120 in
            let m = Model.of_graph g in
            check_graph_against_model g m;
            churn ~seed:(seed * 7 + 1) ~rounds:400 g m)
          [ 11; 12; 13 ]);
    test "xmark graph matches the model through churn" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:5 ~scale:4 () in
        let m = Model.of_graph g in
        check_graph_against_model g m;
        churn ~seed:99 ~rounds:300 g m);
    test "nasa graph matches the model through churn" (fun () ->
        let g = Dkindex_datagen.Nasa.graph ~seed:6 ~scale:3 () in
        let m = Model.of_graph g in
        check_graph_against_model g m;
        churn ~seed:100 ~rounds:300 g m);
    test "children and parents come out sorted and deduplicated" (fun () ->
        let g = random_graph ~seed:21 ~nodes:200 in
        Data_graph.iter_nodes g (fun u ->
            let cs = Data_graph.children g u in
            check_int_list "children sorted" (List.sort_uniq compare cs) cs;
            let ps = Data_graph.parents g u in
            check_int_list "parents sorted" (List.sort_uniq compare ps) ps));
    test "exists helpers agree with list search" (fun () ->
        let g = random_graph ~seed:22 ~nodes:100 in
        let rng = Prng.create ~seed:23 in
        for _ = 1 to 200 do
          let u = Prng.int rng (Data_graph.n_nodes g) in
          let x = Prng.int rng (Data_graph.n_nodes g) in
          check_bool "exists_children"
            (List.mem x (Data_graph.children g u))
            (Data_graph.exists_children g u (fun c -> c = x));
          check_bool "exists_parents"
            (List.mem x (Data_graph.parents g u))
            (Data_graph.exists_parents g u (fun p -> p = x))
        done);
    test "csr views match the iterators, before and after churn" (fun () ->
        let g = random_graph ~seed:24 ~nodes:80 in
        let check_views () =
          let run_of off arr u =
            List.init
              (Int_vec.get off (u + 1) - Int_vec.get off u)
              (fun i -> Int_vec.get arr (Int_vec.get off u + i))
          in
          let off, arr = Data_graph.csr_children g in
          Data_graph.iter_nodes g (fun u ->
              check_int_list "children run" (Data_graph.children g u) (run_of off arr u));
          let off, arr = Data_graph.csr_parents g in
          Data_graph.iter_nodes g (fun u ->
              check_int_list "parents run" (Data_graph.parents g u) (run_of off arr u))
        in
        check_views ();
        let m = Model.of_graph g in
        churn ~seed:25 ~rounds:150 g m;
        check_views ());
    test "graft keeps both sides intact" (fun () ->
        let g = random_graph ~seed:31 ~nodes:60 in
        let h = Dkindex_datagen.Xmark.graph ~seed:7 ~scale:2 () in
        let ng = Data_graph.n_nodes g in
        let g', offset = Data_graph.graft g h in
        check_int "offset" ng offset;
        check_int "node count" (ng + Data_graph.n_nodes h - 1) (Data_graph.n_nodes g');
        (* g's edges survive verbatim *)
        Data_graph.iter_edges g (fun u v ->
            check_bool "g edge kept" true (Data_graph.has_edge g' u v));
        (* h's non-root structure survives under the remap *)
        let remap u = if u = 0 then Data_graph.root g' else u - 1 + offset in
        Data_graph.iter_edges h (fun u v ->
            check_bool "h edge kept" true (Data_graph.has_edge g' (remap u) (remap v)));
        let pool' = Data_graph.pool g' in
        for u = 1 to Data_graph.n_nodes h - 1 do
          check_bool "label kept" true
            (String.equal (Data_graph.label_name h u)
               (Label.Pool.name pool' (Data_graph.label g' (remap u))))
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Index graph with array extents *)

let all_labels g =
  let pool = Data_graph.pool g in
  Label.Pool.fold (fun l _ acc -> l :: acc) pool []

let check_label_bookkeeping idx g =
  List.iter
    (fun l ->
      let listed = Index_graph.nodes_with_label idx l in
      check_int "count_with_label = |nodes_with_label|" (List.length listed)
        (Index_graph.count_with_label idx l);
      List.iter
        (fun id ->
          check_bool "listed node alive" true (Index_graph.is_alive idx id);
          check_bool "label matches" true
            (Label.equal (Index_graph.node idx id).Index_graph.label l))
        listed)
    (all_labels g)

let index_cases =
  [
    test "extents are sorted arrays partitioning the data nodes" (fun () ->
        List.iter
          (fun (name, build) ->
            let g = random_graph ~seed:41 ~nodes:150 in
            let idx = build g in
            Index_graph.check_invariants idx;
            let seen = Array.make (Data_graph.n_nodes g) false in
            Index_graph.iter_alive idx (fun nd ->
                check_int
                  (name ^ ": extent_size")
                  (Array.length nd.Index_graph.extent)
                  nd.Index_graph.extent_size;
                check_int (name ^ ": extent_min") nd.Index_graph.extent.(0)
                  (Index_graph.extent_min nd);
                Array.iter
                  (fun u ->
                    check_bool (name ^ ": no overlap") false seen.(u);
                    seen.(u) <- true;
                    check_bool (name ^ ": extent_mem") true (Index_graph.extent_mem nd u))
                  nd.Index_graph.extent;
                check_bool (name ^ ": extent_mem miss") false
                  (Index_graph.extent_mem nd (-1)));
            check_bool (name ^ ": covers") true (Array.for_all Fun.id seen))
          [
            ("label-split", Label_split.build);
            ("A(2)", fun g -> A_k_index.build g ~k:2);
            ("1-index", fun g -> One_index.build g);
            ("F&B", Fb_index.build);
          ]);
    test "label counts stay exact through splits and updates" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:8 ~scale:4 () in
        let reqs = [ ("personref", 3); ("bidder", 2); ("interest", 3) ] in
        let idx = Dk_index.build g ~reqs in
        check_label_bookkeeping idx g;
        let rng = Prng.create ~seed:55 in
        let n = Data_graph.n_nodes g in
        for _ = 1 to 25 do
          let u = Prng.int rng n and v = Prng.int rng n in
          if not (Data_graph.has_edge g u v) then Dk_update.add_edge idx u v;
          check_label_bookkeeping idx g
        done;
        Index_graph.check_invariants idx);
    test "nodes_with_label skips compaction when nothing died" (fun () ->
        let g = random_graph ~seed:42 ~nodes:100 in
        let idx = Label_split.build g in
        List.iter
          (fun l ->
            let first = Index_graph.nodes_with_label idx l in
            (* No kill in between: the exact same list must come back. *)
            check_bool "physically cached" true (first == Index_graph.nodes_with_label idx l))
          (all_labels g);
        (* After a split the bucket must drop the dead id. *)
        let victim =
          Index_graph.fold_alive idx ~init:None ~f:(fun acc nd ->
              match acc with
              | Some _ -> acc
              | None -> if nd.Index_graph.extent_size >= 2 then Some nd else None)
        in
        match victim with
        | None -> Alcotest.fail "no splittable class in fixture"
        | Some nd ->
          let label = nd.Index_graph.label in
          let extent = nd.Index_graph.extent in
          let fresh =
            Index_graph.split idx nd.Index_graph.id
              [ [| extent.(0) |]; Array.sub extent 1 (Array.length extent - 1) ]
          in
          let listed = Index_graph.nodes_with_label idx label in
          check_bool "dead id dropped" false (List.mem nd.Index_graph.id listed);
          List.iter (fun id -> check_bool "fresh listed" true (List.mem id listed)) fresh;
          check_int "count tracks split" (List.length listed)
            (Index_graph.count_with_label idx label));
  ]

(* ------------------------------------------------------------------ *)
(* Hash-signature refinement vs the original list-key oracle *)

(* The seed implementation: intern (own class, sorted parent-class
   set) list keys, class ids by first occurrence in node order. *)
let refine_oracle g (p : Kbisim.partition) =
  let n = Data_graph.n_nodes g in
  let table : (int * int list, int) Hashtbl.t = Hashtbl.create 64 in
  let cls = Array.make n 0 in
  let count = ref 0 in
  for u = 0 to n - 1 do
    let parents_key = ref [] in
    Data_graph.iter_parents g u (fun v -> parents_key := p.Kbisim.cls.(v) :: !parents_key);
    let key = (p.Kbisim.cls.(u), List.sort_uniq compare !parents_key) in
    let c' =
      match Hashtbl.find_opt table key with
      | Some c' -> c'
      | None ->
        let c' = !count in
        incr count;
        Hashtbl.add table key c';
        c'
    in
    cls.(u) <- c'
  done;
  (cls, !count)

let check_partition_equal name (a : Kbisim.partition) (b : Kbisim.partition) =
  check_int (name ^ ": n_classes") a.Kbisim.n_classes b.Kbisim.n_classes;
  check_bool (name ^ ": cls") true (a.Kbisim.cls = b.Kbisim.cls);
  check_bool (name ^ ": parent_class") true (a.Kbisim.parent_class = b.Kbisim.parent_class)

let kbisim_cases =
  [
    test "signature refinement equals the list-key oracle" (fun () ->
        List.iter
          (fun g ->
            let p = ref (Kbisim.label_partition g) in
            for _ = 1 to 6 do
              let p', _ = Kbisim.refine g !p ~eligible:(fun _ -> true) in
              let cls, n_classes = refine_oracle g !p in
              check_int "round classes" n_classes p'.Kbisim.n_classes;
              check_bool "round cls" true (cls = p'.Kbisim.cls);
              p := p'
            done)
          [
            random_graph ~seed:61 ~nodes:300;
            Dkindex_datagen.Xmark.graph ~seed:9 ~scale:4 ();
            Dkindex_datagen.Nasa.graph ~seed:10 ~scale:3 ();
          ]);
    test "refine ~domains:4 is bit-for-bit refine ~domains:1" (fun () ->
        (* Large enough to take the parallel path (n >= 4096). *)
        let g = random_graph ~seed:62 ~nodes:6000 in
        let p1 = Kbisim.k_partition g ~k:3 ~domains:1 in
        let p4 = Kbisim.k_partition g ~k:3 ~domains:4 in
        check_partition_equal "k_partition" p1 p4;
        let s1, r1 = Kbisim.stable_partition g ~domains:1 in
        let s4, r4 = Kbisim.stable_partition g ~domains:4 in
        check_int "rounds" r1 r4;
        check_partition_equal "stable" s1 s4;
        let b1, ch1 = Kbisim.refine_by_children g p1 ~domains:1 in
        let b4, ch4 = Kbisim.refine_by_children g p1 ~domains:4 in
        check_bool "children changed flag" ch1 ch4;
        check_partition_equal "by_children" b1 b4);
    test "domain counts 2, 3 and 5 also agree" (fun () ->
        let g = Dkindex_datagen.Xmark.graph ~seed:11 ~scale:70 () in
        check_bool "big enough for the parallel path" true (Data_graph.n_nodes g >= 4096);
        let p1 = Kbisim.k_partition g ~k:2 ~domains:1 in
        List.iter
          (fun d -> check_partition_equal (Printf.sprintf "domains:%d" d) p1
               (Kbisim.k_partition g ~k:2 ~domains:d))
          [ 2; 3; 5 ]);
  ]

let () =
  Alcotest.run "csr"
    [ ("data_graph", graph_cases); ("index_graph", index_cases); ("kbisim", kbisim_cases) ]
