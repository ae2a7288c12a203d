type dep =
  | Ww
  | Wr
  | Rw

type edge = {
  src : string;
  dst : string;
  dep : dep;
  src_access : Symbolic.access;
  dst_access : Symbolic.access;
  vulnerable : bool;
}

type t = {
  templates : Template.t list;
  edges : edge list;
}

let dep_name = function Ww -> "ww" | Wr -> "wr" | Rw -> "rw"

(* An rw edge is "vulnerable" (can connect two concurrent committed
   instances) unless the reader also writes the very key it read: the read
   region is [Exact k] and the reading template has a write access on the
   same table with the syntactically identical [Exact k] region (same
   constant, or same parameter name — one instance binds a parameter once).
   Then any instance pair witnessing the anti-dependency also write-conflicts
   on that key, and first-committer-wins forbids both committing while
   concurrent. This is Fekete's argument for why read-modify-write patterns
   (e.g. TPC-C NewOrder) are safe under SI, and it is exactly what keeps the
   conservative analysis from flagging every UPDATE against itself. Reads
   through [Range]/[Scan] regions stay vulnerable: the row witnessing the
   anti-dependency need not be one the reader writes back. *)
let rw_vulnerable (a : Template.t) (ra : Symbolic.access) =
  match ra.Symbolic.region with
  | Symbolic.Exact k ->
    not
      (List.exists
         (fun (w : Symbolic.access) ->
           w.Symbolic.table = ra.Symbolic.table
           && w.Symbolic.region = Symbolic.Exact k)
         a.footprint.Symbolic.writes)
  | Symbolic.Range _ | Symbolic.Scan -> true

(* Total order over dependency kinds, to sort edge lists canonically. *)
let dep_rank = function Ww -> 0 | Wr -> 1 | Rw -> 2

(* One edge per (src, dst, dep), keeping the first witnessing access pair —
   except that a vulnerable rw witness supersedes a non-vulnerable one.
   Witnesses are found in template order; the final edge list is sorted by
   (src, dst, dep) so reports are canonical regardless of how the template
   list was assembled. *)
let build templates =
  Template.check_distinct templates;
  let edges = ref [] in
  let add src dst dep src_access dst_access vulnerable =
    let same e = e.src = src && e.dst = dst && e.dep = dep in
    match List.find_opt same !edges with
    | None ->
      edges := { src; dst; dep; src_access; dst_access; vulnerable } :: !edges
    | Some old when vulnerable && not old.vulnerable ->
      (* Upgrade in place: keep edge order stable, record the stronger witness. *)
      edges :=
        List.map
          (fun e ->
            if same e then { src; dst; dep; src_access; dst_access; vulnerable }
            else e)
          !edges
    | Some _ -> ()
  in
  let overlaps f g from_set to_set on_hit =
    List.iter
      (fun a ->
        List.iter
          (fun b -> if Symbolic.may_overlap a b then on_hit a b)
          (to_set g))
      (from_set f)
  in
  let reads (t : Template.t) = t.footprint.Symbolic.reads in
  let writes (t : Template.t) = t.footprint.Symbolic.writes in
  List.iter
    (fun (a : Template.t) ->
      List.iter
        (fun (b : Template.t) ->
          overlaps a b writes writes (fun x y -> add a.name b.name Ww x y true);
          overlaps a b writes reads (fun x y -> add a.name b.name Wr x y true);
          overlaps a b reads writes (fun x y ->
              add a.name b.name Rw x y (rw_vulnerable a x)))
        templates)
    templates;
  let edges =
    List.sort
      (fun a b ->
        compare (a.src, a.dst, dep_rank a.dep) (b.src, b.dst, dep_rank b.dep))
      (List.rev !edges)
  in
  { templates; edges }

let restrict t names =
  {
    templates =
      List.filter (fun (tm : Template.t) -> List.mem tm.name names) t.templates;
    edges =
      List.filter (fun e -> List.mem e.src names && List.mem e.dst names) t.edges;
  }

type dangerous = {
  rw_in : edge;
  rw_out : edge;
  closing : string list;
}

(* Shortest path from [src] to [dst] through any edges (BFS); [Some [src]]
   when they coincide. *)
let path t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.replace parent src src;
    Queue.add src queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let node = Queue.pop queue in
      List.iter
        (fun e ->
          if e.src = node && not (Hashtbl.mem parent e.dst) then begin
            Hashtbl.replace parent e.dst node;
            if e.dst = dst then found := true else Queue.add e.dst queue
          end)
        t.edges
    done;
    if not !found then None
    else begin
      let rec walk acc node =
        if node = src then node :: acc
        else walk (node :: acc) (Hashtbl.find parent node)
      in
      Some (walk [] dst)
    end
  end

let dangerous_structures t =
  let rws = List.filter (fun e -> e.dep = Rw && e.vulnerable) t.edges in
  let structures =
    List.concat_map
      (fun rw_in ->
        List.filter_map
          (fun rw_out ->
            if rw_in.dst <> rw_out.src then None
            else
              (* Close the cycle: T3 must reach T1 (trivially when equal). *)
              Option.map
                (fun closing -> { rw_in; rw_out; closing })
                (path t ~src:rw_out.dst ~dst:rw_in.src))
          rws)
      rws
  in
  let key d = (d.rw_in.src, d.rw_in.dst, d.rw_out.dst) in
  let deduped =
    List.fold_left
      (fun acc d -> if List.exists (fun d' -> key d' = key d) acc then acc else d :: acc)
      [] structures
  in
  List.sort (fun a b -> compare (key a) (key b)) deduped

let dangerous_id d =
  Printf.sprintf "%s>%s>%s" d.rw_in.src d.rw_in.dst d.rw_out.dst

let pp_edge ppf e =
  Format.fprintf ppf "%s -%s-> %s (%s ~ %s)%s" e.src (dep_name e.dep) e.dst
    (Symbolic.access_to_string e.src_access)
    (Symbolic.access_to_string e.dst_access)
    (if e.dep = Rw && not e.vulnerable then
       " [defused: reader rewrites the key, first-committer-wins applies]"
     else "")

let explain d =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "dangerous structure %s: cycle with consecutive rw anti-dependencies\n"
       (dangerous_id d));
  Buffer.add_string b
    (Printf.sprintf "  %s reads %s, which %s may overwrite (writes %s)\n"
       d.rw_in.src
       (Symbolic.access_to_string d.rw_in.src_access)
       d.rw_in.dst
       (Symbolic.access_to_string d.rw_in.dst_access));
  Buffer.add_string b
    (Printf.sprintf "  %s reads %s, which %s may overwrite (writes %s)\n"
       d.rw_out.src
       (Symbolic.access_to_string d.rw_out.src_access)
       d.rw_out.dst
       (Symbolic.access_to_string d.rw_out.dst_access));
  (match d.closing with
  | [ _ ] ->
    Buffer.add_string b
      (Printf.sprintf
         "  the cycle closes immediately (%s = %s): concurrent instances can both commit under SI\n"
         d.rw_out.dst d.rw_in.src)
  | nodes ->
    Buffer.add_string b
      (Printf.sprintf "  the cycle closes through %s\n" (String.concat " -> " nodes)));
  Buffer.add_string b
    (Printf.sprintf
       "  under snapshot isolation both anti-dependent instances can run on the same snapshot and commit: potential write skew on table %s"
       d.rw_in.src_access.Symbolic.table);
  Buffer.contents b
