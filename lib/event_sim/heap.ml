(* Struct-of-arrays binary min-heap keyed by [(time, seq)].

   The heap order lives in three parallel arrays: [times] (a flat
   [Float.Array], so no time is ever boxed), [seqs] and [slots]. Sifting
   moves only these unboxed values, so no step goes through the write
   barrier. Payloads never move: each sits in its own slot of the
   [payloads] pool, written once on push and reset to [dummy] on pop (or
   earlier, by [clear]), and [slots] maps a heap position to
   its payload's slot. Free slot ids wait on the [free] stack. Invariant:
   [len + nfree = capacity]. *)

type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  { times = Float.Array.create 0; seqs = [||]; slots = [||]; payloads = [||];
    free = [||]; nfree = 0; len = 0; dummy }

let length t = t.len
let is_empty t = t.len = 0

(* Called only when full ([nfree = 0]): every new slot id is free. *)
let grow t =
  let cap = t.len in
  let cap' = max 16 (2 * cap) in
  let times = Float.Array.create cap' in
  Float.Array.blit t.times 0 times 0 cap;
  let extend a =
    let b = Array.make cap' 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  t.times <- times;
  t.seqs <- extend t.seqs;
  t.slots <- extend t.slots;
  let payloads = Array.make cap' t.dummy in
  Array.blit t.payloads 0 payloads 0 cap;
  t.payloads <- payloads;
  (* The free stack's live part, [0, cap' - cap), holds the new slot ids;
     the lowest comes off first. *)
  t.free <- Array.init cap' (fun i -> cap' - 1 - i);
  t.nfree <- cap' - cap

let[@inline] push t ~time ~seq payload =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.payloads.(slot) <- payload;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* Sift the hole at the end up past every parent that sorts after the new
     entry, then fill it. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Float.Array.get times parent in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      Float.Array.set times !i pt;
      seqs.(!i) <- seqs.(parent);
      slots.(!i) <- slots.(parent);
      i := parent
    end
    else continue := false
  done;
  Float.Array.set times !i time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot;
  slot

(* A slot is reused as soon as its entry pops, so the payload check is what
   tells a live entry's slot from a recycled one. *)
let[@inline] clear t slot payload =
  if t.payloads.(slot) == payload then t.payloads.(slot) <- t.dummy

let[@inline] min_time t =
  if t.len = 0 then invalid_arg "Heap.min_time: empty heap";
  Float.Array.get t.times 0

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let top = slots.(0) in
  let payload = t.payloads.(top) in
  t.payloads.(top) <- t.dummy;
  t.free.(t.nfree) <- top;
  t.nfree <- t.nfree + 1;
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then begin
    (* Sift the last entry down from the root hole: move the smaller child
       up while it sorts before that entry. *)
    let time = Float.Array.get times n and seq = seqs.(n) and slot = slots.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let lt = Float.Array.get times l and rt = Float.Array.get times r in
            if rt < lt || (rt = lt && seqs.(r) < seqs.(l)) then r else l
          else l
        in
        let ct = Float.Array.get times c in
        if ct < time || (ct = time && seqs.(c) < seq) then begin
          Float.Array.set times !i ct;
          seqs.(!i) <- seqs.(c);
          slots.(!i) <- slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    Float.Array.set times !i time;
    seqs.(!i) <- seq;
    slots.(!i) <- slot
  end;
  payload
