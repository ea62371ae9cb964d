type t = { name : string; cpu : float; memory_gb : float; storage_gb : float }

let make ?(name = "node") ~cpu ~memory_gb ~storage_gb () =
  if cpu <= 0. || memory_gb <= 0. || storage_gb <= 0. then
    invalid_arg "Profile.make: resources must be strictly positive";
  { name; cpu; memory_gb; storage_gb }

let reference = make ~name:"reference" ~cpu:1.0 ~memory_gb:4.0 ~storage_gb:100.0 ()

let scale t f =
  if f <= 0. then invalid_arg "Profile.scale: factor must be strictly positive";
  {
    t with
    cpu = t.cpu *. f;
    memory_gb = t.memory_gb *. f;
    storage_gb = t.storage_gb *. f;
  }

let score t =
  let c = t.cpu /. reference.cpu in
  let m = t.memory_gb /. reference.memory_gb in
  let s = t.storage_gb /. reference.storage_gb in
  (c *. m *. s) ** (1. /. 3.)
