open Dkindex_graph

let magic_v1 = "dkindex-index 1"
let magic = "dkindex-index 2"

let enc k = if k >= Index_graph.k_infinite then -1 else k

let to_string t =
  let data = Index_graph.data t in
  let n = Data_graph.n_nodes data in
  let cls, order = Index_graph.dense_classes t in
  let nc = Array.length order in
  let buf = Buffer.create (n * 8) in
  Buffer.add_string buf magic;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "counts %d %d %d\n" n (Data_graph.n_edges data) nc);
  let graph_text = Serial.to_string data in
  Buffer.add_string buf (Printf.sprintf "graph %d\n" (String.length graph_text));
  Buffer.add_string buf graph_text;
  Buffer.add_string buf "cls\n";
  Array.iter
    (fun c ->
      Buffer.add_string buf (string_of_int c);
      Buffer.add_char buf '\n')
    cls;
  Buffer.add_string buf (Printf.sprintf "classes %d\n" nc);
  Array.iter
    (fun id ->
      let nd = Index_graph.node t id in
      Buffer.add_string buf
        (Printf.sprintf "%d %d\n" (enc nd.Index_graph.k) (enc nd.Index_graph.req)))
    order;
  Buffer.contents buf

let of_string s =
  let fail fmt = Printf.ksprintf failwith fmt in
  let len = String.length s in
  let line_end pos = match String.index_from_opt s pos '\n' with
    | Some i -> i
    | None -> fail "Index_serial.of_string: truncated"
  in
  let read_line pos =
    let e = line_end pos in
    (String.sub s pos (e - pos), e + 1)
  in
  let header, pos = read_line 0 in
  let version =
    if String.equal header magic then 2
    else if String.equal header magic_v1 then 1
    else fail "Index_serial.of_string: bad magic"
  in
  (* v2 declares the shape up front; the declaration is checked against
     what the body actually decodes to, so a snapshot whose graph or
     partition was truncated or spliced is rejected even when each part
     parses on its own. *)
  let declared, pos =
    if version = 1 then (None, pos)
    else
      let counts_line, pos = read_line pos in
      match String.split_on_char ' ' counts_line with
      | [ "counts"; a; b; c ] -> (
        match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c) with
        | Some a, Some b, Some c when a >= 0 && b >= 0 && c >= 0 -> (Some (a, b, c), pos)
        | _ -> fail "Index_serial.of_string: bad counts line")
      | _ -> fail "Index_serial.of_string: expected 'counts <nodes> <edges> <classes>'"
  in
  let graph_line, pos = read_line pos in
  let graph_len =
    match String.split_on_char ' ' graph_line with
    | [ "graph"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 && pos + n <= len -> n
      | _ -> fail "Index_serial.of_string: bad graph length")
    | _ -> fail "Index_serial.of_string: expected 'graph <len>'"
  in
  let data = Serial.of_string (String.sub s pos graph_len) in
  let pos = pos + graph_len in
  let marker, pos = read_line pos in
  if not (String.equal marker "cls") then fail "Index_serial.of_string: expected 'cls'";
  let n = Data_graph.n_nodes data in
  let cls = Array.make n 0 in
  let pos = ref pos in
  for u = 0 to n - 1 do
    let line, next = read_line !pos in
    (match int_of_string_opt line with
    | Some c when c >= 0 -> cls.(u) <- c
    | _ -> fail "Index_serial.of_string: bad class for node %d" u);
    pos := next
  done;
  let classes_line, next = read_line !pos in
  pos := next;
  let m =
    match String.split_on_char ' ' classes_line with
    | [ "classes"; m ] -> (
      match int_of_string_opt m with
      | Some m when m > 0 -> m
      | _ -> fail "Index_serial.of_string: bad class count")
    | _ -> fail "Index_serial.of_string: expected 'classes <m>'"
  in
  Array.iter (fun c -> if c >= m then fail "Index_serial.of_string: class out of range") cls;
  (match declared with
  | None -> ()
  | Some (dn, de, dm) ->
    if dn <> n then
      fail "Index_serial.of_string: declared %d nodes, graph has %d" dn n;
    if de <> Data_graph.n_edges data then
      fail "Index_serial.of_string: declared %d edges, graph has %d" de
        (Data_graph.n_edges data);
    if dm <> m then fail "Index_serial.of_string: declared %d classes, body has %d" dm m);
  let ks = Array.make m 0 and reqs = Array.make m 0 in
  for c = 0 to m - 1 do
    let line, next = read_line !pos in
    (match String.split_on_char ' ' line with
    | [ k; req ] -> (
      match (int_of_string_opt k, int_of_string_opt req) with
      | Some k, Some req ->
        ks.(c) <- (if k < 0 then Index_graph.k_infinite else k);
        reqs.(c) <- (if req < 0 then Index_graph.k_infinite else req)
      | _ -> fail "Index_serial.of_string: bad class line %d" c)
    | _ -> fail "Index_serial.of_string: bad class line %d" c);
    pos := next
  done;
  Index_graph.of_partition data ~cls ~n_classes:m
    ~k_of_class:(fun c -> ks.(c))
    ~req_of_class:(fun c -> reqs.(c))

(* Write-to-temp + rename: a crash mid-save leaves the previous
   snapshot intact, never a torn file under the final name. *)
let save path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (try
     Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Container persistence: the binary counterpart of the text format
   above — the embedded data graph as mappable sections plus the
   partition (dense first-touch class ids, exactly the numbering
   [to_string] uses), per-class k/req, and the index adjacency itself,
   so loading skips both the text parse and the O(data edges) edge
   projection. *)

let container_sections = Container.graph_n_sections + 6

let save_container path t =
  let data = Index_graph.data t in
  let cls, order = Index_graph.dense_classes t in
  let nc = Array.length order in
  let ks = Int_vec.init nc (fun c -> enc (Index_graph.node t order.(c)).Index_graph.k) in
  let rqs =
    Int_vec.init nc (fun c -> enc (Index_graph.node t order.(c)).Index_graph.req)
  in
  (* Index child CSR in dense-class space (an index node's dense class
     is the class of any extent member); runs re-sorted because the
     dense remap does not preserve id order. *)
  let dense id = cls.(Index_graph.extent_min (Index_graph.node t id)) in
  let kids =
    Array.map
      (fun id ->
        let l = List.sort Int.compare (List.map dense (Index_graph.children_list t id)) in
        Array.of_list l)
      order
  in
  let im = Array.fold_left (fun acc a -> acc + Array.length a) 0 kids in
  let ioff = Int_vec.zeros (nc + 1) in
  Array.iteri (fun c a -> Int_vec.set ioff (c + 1) (Array.length a)) kids;
  for c = 1 to nc do
    Int_vec.set ioff c (Int_vec.get ioff c + Int_vec.get ioff (c - 1))
  done;
  let w = Container.Writer.create path ~kind:Container.Index ~n_sections:container_sections in
  (try
     Container.write_graph_sections w data;
     Container.Writer.int_section w "cls" (Int_vec.of_array cls);
     Container.Writer.int_section w "clsk" ks;
     Container.Writer.int_section w "clsrq" rqs;
     Container.Writer.int_section w "ioff" ioff;
     Container.Writer.begin_section w "iarr";
     Array.iter (fun a -> Array.iter (Container.Writer.write_int w) a) kids;
     Container.Writer.end_section w;
     Container.Writer.begin_section w "imeta";
     Container.Writer.write_int w nc;
     Container.Writer.write_int w im;
     Container.Writer.end_section w
   with e ->
     Container.Writer.abort w;
     raise e);
  Container.Writer.finish w

let load_container ?verify path =
  Container.Reader.with_file ?verify ~kind:Container.Index path (fun h ->
      let malformed what = raise (Container.Error (Container.Malformed what)) in
      let data = Container.Reader.graph h in
      let n = Data_graph.n_nodes data in
      let cls_v = Container.Reader.int_vec h "cls" in
      let ks = Container.Reader.int_vec h "clsk" in
      let rqs = Container.Reader.int_vec h "clsrq" in
      let ioff_v = Container.Reader.int_vec h "ioff" in
      let iarr_v = Container.Reader.int_vec h "iarr" in
      let imeta = Container.Reader.int_vec h "imeta" in
      if Int_vec.length imeta < 2 then malformed "imeta";
      let nc = Int_vec.get imeta 0 and im = Int_vec.get imeta 1 in
      if nc < 1 || im < 0 then malformed "imeta counts";
      if Int_vec.length cls_v <> n then malformed "cls length";
      if Int_vec.length ks <> nc || Int_vec.length rqs <> nc then malformed "class table";
      if Int_vec.length ioff_v <> nc + 1 || Int_vec.length iarr_v <> im then
        malformed "index csr shape";
      let cls = Array.init n (fun u -> Int_vec.get cls_v u) in
      let coff = Array.init (nc + 1) (fun c -> Int_vec.get ioff_v c) in
      let carr = Array.init im (fun i -> Int_vec.get iarr_v i) in
      let dec k = if k < 0 then Index_graph.k_infinite else k in
      try
        Index_graph.of_partition_with_edges data ~cls ~n_classes:nc
          ~k_of_class:(fun c -> dec (Int_vec.get ks c))
          ~req_of_class:(fun c -> dec (Int_vec.get rqs c))
          ~children:(coff, carr)
      with Invalid_argument msg -> malformed msg)
