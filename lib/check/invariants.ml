open Dht_core
open Dht_hashspace
module Runtime = Dht_snode.Runtime
module Hash = Dht_hashes.Hash
module Fingers = Dht_cluster.Fingers

type finding = { inv : string; detail : string }

let pp_finding ppf f = Format.fprintf ppf "%s: %s" f.inv f.detail
let to_strings fs = List.map (Format.asprintf "%a" pp_finding) fs

(* The oracle-model auditor emits "G4: ..."-style messages; lift the prefix
   back out so findings stay addressable by invariant name. *)
let of_message msg =
  match String.index_opt msg ':' with
  | Some i when i > 0 && i < 16 ->
      {
        inv = String.sub msg 0 i;
        detail =
          String.sub msg (i + 1) (String.length msg - i - 1) |> String.trim;
      }
  | Some _ | None -> { inv = "audit"; detail = msg }

let of_messages = List.map of_message

let check_local dht =
  match Audit.check_local dht with Ok () -> [] | Error m -> of_messages m

(* ------------------------------------------------------------------ *)
(* Pure predicates over runtime snapshots                               *)

(* Per-snode checks that hold at every instant, including mid-event — safe
   to run from a per-commit hook. Cluster-wide invariants (LPDR agreement,
   global coverage) legitimately flux while a commit fans out. *)
let check_snode ~space (sn : Runtime.View.snode_view) =
  let issues = ref [] in
  let fail inv fmt = Format.kasprintf (fun d -> issues := { inv; detail = d } :: !issues) fmt in
  (* The routing cache must always cover the whole range — a hole would
     strand routed operations. *)
  (match Coverage.check space (List.map fst sn.cache) with
  | Ok () -> ()
  | Error e ->
      fail "cache" "snode %d routing cache: %a" sn.sid Coverage.pp_error e);
  (* The replica map covers the whole range too (it routes quorum ops). *)
  (match Coverage.check space (List.map fst sn.rmap) with
  | Ok () -> ()
  | Error e ->
      fail "rmap" "snode %d replica map: %a" sn.sid Coverage.pp_error e);
  (* Every stored key lives inside one of its owner vnode's partitions. *)
  List.iter
    (fun (vn : Runtime.View.vnode_view) ->
      List.iter
        (fun (key, _) ->
          let point = Hash.string space key in
          if not (List.exists (fun s -> Span.contains space s point) vn.spans)
          then
            fail "data" "snode %d: key %S stored at %a which does not own it"
              sn.sid key Vnode_id.pp vn.vid)
        vn.data)
    sn.vnodes;
  List.rev !issues

(* The full paper-invariant battery over one cluster snapshot. Meaningful
   at quiescence (no balancing event mid-flight): G1' global coverage,
   LPDR-copy agreement, G2'-G5', L1, L2, quota conservation, per-snode
   cache coverage and the bound outside the steward regions, and data
   placement. [vmax] is the group capacity (2·Vmin; [max_int] under the
   global approach, making every group the sole root group as far as L2
   is concerned). *)
let check_view ?(bounded = false) ~space ~pmin ~vmax (v : Runtime.View.t) =
  let issues = ref [] in
  let fail inv fmt = Format.kasprintf (fun d -> issues := { inv; detail = d } :: !issues) fmt in
  let vnodes =
    List.concat_map (fun (sn : Runtime.View.snode_view) -> sn.vnodes) v.snodes
  in
  (* G1': the union of all local partitions tiles R_h exactly. *)
  (match
     Coverage.check space
       (List.concat_map (fun (vn : Runtime.View.vnode_view) -> vn.spans) vnodes)
   with
  | Ok () -> ()
  | Error e -> fail "G1" "partition union: %a" Coverage.pp_error e);
  (* Quota conservation: ΣQv = 1. *)
  let sigma =
    List.fold_left
      (fun acc (vn : Runtime.View.vnode_view) ->
        List.fold_left (fun a s -> a +. Span.quota space s) acc vn.spans)
      0. vnodes
  in
  if Float.abs (sigma -. 1.) > 1e-9 then fail "quota" "sum Qv = %.12f" sigma;
  (* Gather LPDR copies per group from live snodes (a crashed snode's
     durable copy is legitimately stale until its restart re-pull). *)
  let copies : (Group_id.t * (int * Runtime.View.lpdr_copy) list) list =
    List.fold_left
      (fun acc (sn : Runtime.View.snode_view) ->
        if not sn.up then acc
        else
          List.fold_left
            (fun acc (lp : Runtime.View.lpdr_copy) ->
              let cur = Option.value ~default:[] (List.assoc_opt lp.group acc) in
              (lp.group, (sn.sid, lp) :: cur)
              :: List.remove_assoc lp.group acc)
            acc sn.lpdrs)
      [] v.snodes
  in
  let group_count = List.length copies in
  let by_vid =
    List.map (fun (vn : Runtime.View.vnode_view) -> (vn.vid, vn)) vnodes
  in
  List.iter
    (fun (gid, cps) ->
      match cps with
      | [] -> ()
      | (_, (ref_lp : Runtime.View.lpdr_copy)) :: rest ->
          List.iter
            (fun (sid, (lp : Runtime.View.lpdr_copy)) ->
              if
                lp.level <> ref_lp.level || lp.epoch <> ref_lp.epoch
                || lp.counts <> ref_lp.counts
              then
                fail "LPDR" "group %a: snode %d holds a divergent copy"
                  Group_id.pp gid sid)
            rest;
          (* L2 with the sole-group exception. *)
          let vg = List.length ref_lp.counts in
          if group_count = 1 then begin
            if vg < 1 || vg > vmax then
              fail "L2" "sole group %a has Vg=%d" Group_id.pp gid vg
          end
          else if vg < vmax / 2 || vg > vmax then
            fail "L2" "group %a has Vg=%d outside [%d, %d]" Group_id.pp gid vg
              (vmax / 2) vmax;
          (* G2': total partition count is a power of two. *)
          let total =
            List.fold_left (fun acc (_, c) -> acc + c) 0 ref_lp.counts
          in
          if not (Params.is_power_of_two total) then
            fail "G2" "group %a has %d partitions" Group_id.pp gid total;
          (* G5' (removal-tolerant): power-of-two population => equal
             counts. *)
          (if Params.is_power_of_two vg then
             match ref_lp.counts with
             | (_, c0) :: _ ->
                 if List.exists (fun (_, c) -> c <> c0) ref_lp.counts then
                   fail "G5" "group %a uneven at Vg=%d" Group_id.pp gid vg
             | [] -> ());
          List.iter
            (fun (vid, c) ->
              (* G4': Pmin <= Pv <= Pmax. *)
              if c < pmin || c > 2 * pmin then
                fail "G4" "group %a vnode %a count %d outside [%d, %d]"
                  Group_id.pp gid Vnode_id.pp vid c pmin (2 * pmin);
              match List.assoc_opt vid by_vid with
              | None ->
                  fail "L1" "%a in LPDR of %a but hosted nowhere" Vnode_id.pp
                    vid Group_id.pp gid
              | Some vn ->
                  (* LPDR counts match real ownership. *)
                  if List.length vn.spans <> c then
                    fail "LPDR" "%a registered with %d partitions, owns %d"
                      Vnode_id.pp vid c (List.length vn.spans);
                  if not (Group_id.equal vn.group gid) then
                    fail "L1" "%a group field %a but listed in %a" Vnode_id.pp
                      vid Group_id.pp vn.group Group_id.pp gid;
                  (* G3': every partition at the group's split level. *)
                  List.iter
                    (fun s ->
                      if Span.level s <> ref_lp.level then
                        fail "G3" "%a holds %a at level %d, group %a at %d"
                          Vnode_id.pp vid Span.pp s (Span.level s) Group_id.pp
                          gid ref_lp.level)
                    vn.spans)
            ref_lp.counts)
    copies;
  (* L1 (other direction): every hosted vnode is listed in exactly one
     live group's LPDR. *)
  List.iter
    (fun (vn : Runtime.View.vnode_view) ->
      let listed =
        List.filter
          (fun (_, cps) ->
            match cps with
            | (_, (lp : Runtime.View.lpdr_copy)) :: _ ->
                List.mem_assoc vn.vid lp.counts
            | [] -> false)
          copies
      in
      match listed with
      | [ _ ] -> ()
      | [] ->
          fail "L1" "%a hosted but listed in no group's LPDR" Vnode_id.pp
            vn.vid
      | l ->
          fail "L1" "%a listed in %d groups" Vnode_id.pp vn.vid (List.length l))
    vnodes;
  (* With bounded routing armed, a routing cache keeps its steward share
     exactly, and its entries outside the regions its snode stewards
     (entries that intersect none of them) are what the geometry leaves:
     at most [pmin] entries at the bootstrap level or coarser (disjoint
     spans, each holding one of the [pmin] bootstrap cells), and deeper
     ones only as fragments a split inside a region left, each the
     sibling of one of its ancestors: one per level between the
     bootstrap's and the finger level per stewarded region. *)
  if bounded then begin
    let snodes = List.length v.snodes in
    let level = Fingers.level ~bits:(Space.bits space) ~snodes in
    let regions = Fingers.regions ~snodes ~level in
    let per_region = Int.max 0 (level - Params.log2_exact pmin) in
    List.iter
      (fun (sn : Runtime.View.snode_view) ->
        let mine = regions.(sn.sid) in
        let bound = pmin + (per_region * List.length mine) in
        let n =
          List.length
            (List.filter (fun (s, _) -> not (Fingers.meets ~level mine s)) sn.cache)
        in
        if n > bound then
          fail "cache"
            "snode %d routing cache: %d entries outside its %d steward \
             regions exceed the geometry's %d"
            sn.sid n (List.length mine) bound)
      v.snodes
  end;
  (* Per-snode checks on every snode: a crashed snode's routing cache,
     replica map and stored keys are durable, so they must stay
     well-formed while it is down. *)
  List.rev !issues @ List.concat_map (check_snode ~space) v.snodes

let check_runtime rt =
  check_view ~bounded:(Runtime.route_bounded rt) ~space:(Runtime.space rt)
    ~pmin:(Runtime.pmin rt) ~vmax:(Runtime.vmax rt) (Runtime.view rt)

(* Hash-tree consistency: every live snode's snapshot tree must be
   structurally sound and reproduce the flat scan digest for every
   replicated partition span, the digest an anti-entropy root frame
   carries. *)
let check_merkle rt =
  List.map (fun detail -> { inv = "MERKLE"; detail }) (Runtime.merkle_audit rt)

(* Active-balancing audit: a hot-partition swap moves only placement, so
   it must be invisible to the paper's battery — the full check_view
   battery is re-run and any finding is attributed to the run — and it
   must never lose an acked write: every key in [acked] has to resolve at
   its partition owner's authoritative copy ({!Runtime.peek}, the same
   oracle the linearizability checker trusts). Meaningful at quiescence,
   like {!check_runtime}. *)
let check_balance ?(acked = []) rt =
  let battery = check_runtime rt in
  let lost =
    List.filter_map
      (fun key ->
        match Runtime.peek rt ~key with
        | Some _ -> None
        | None ->
            Some
              {
                inv = "balance";
                detail =
                  Printf.sprintf
                    "acked write %S lost: no authoritative copy after \
                     transfers"
                    key;
              })
      acked
  in
  battery @ lost
