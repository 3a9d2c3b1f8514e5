(** Sstables: immutable sorted tables of internal-key/value entries.

    Layout: data blocks, then an optional bloom-filter block over user keys
    (PebblesDB's sstable-level filters, §4.1), then an index block mapping
    each data block's last key to its (offset, size) handle, then a fixed
    footer.  Entries are written once, in internal-key order, and never
    updated in place.

    When [prefix_bloom_len > 0] the filter block additionally records a
    tagged probe per distinct [prefix_bloom_len]-byte user-key prefix, so
    prefix-bounded scans can skip tables whose filter proves the prefix
    absent.  The length is recorded in the footer's padding word, making
    build-time and probe-time prefix lengths agree by construction. *)

type handle = { offset : int; size : int }

let encode_handle buf h =
  Pdb_util.Varint.put_uvarint buf h.offset;
  Pdb_util.Varint.put_uvarint buf h.size

let footer_size = 28
let magic = 0x50454242 (* "PEBB" *)

(* Namespaces prefix probes away from whole-key probes within the shared
   bloom.  A collision with a real user key only risks a false positive,
   which filters tolerate by design. *)
let prefix_tag = "\x01pfx\x01"

(** Summary of a finished table, recorded in the MANIFEST. *)
type meta = {
  number : int;
  file_size : int;
  entries : int;
  smallest : string; (* encoded internal key *)
  largest : string;
}

(** [file_name ~dir number] is [dir/NNNNNN.sst], the number zero-padded to
    six digits. *)
let file_name ~dir number =
  let digits = string_of_int number in
  let pad = 6 - String.length digits in
  let digits = if pad > 0 then String.make pad '0' ^ digits else digits in
  String.concat "" [ dir; "/"; digits; ".sst" ]

module Builder = struct
  type t = {
    env : Pdb_simio.Env.t;
    writer : Pdb_simio.Env.writer;
    file : string;
    number : int;
    block_bytes : int;
    prefix_bloom_len : int;
    mutable offset : int;
    data : Block.Builder.t;
    index : (string * handle) list ref; (* reversed *)
    filter : Pdb_bloom.Bloom.t option;
    mutable smallest : string option;
    mutable largest : string;
    mutable entries : int;
    mutable last_prefix : string option;
    scratch : Buffer.t;  (** index handles and the footer *)
  }

  (** [create env ~dir ~number ~block_bytes ~bloom ~expected_keys] starts a
      new table file.  [bloom = true] attaches a per-table filter sized for
      [expected_keys]; [prefix_bloom_len > 0] also records user-key
      prefixes of that length in the same filter (sized for the extra
      probes). *)
  let create ?(prefix_bloom_len = 0) env ~dir ~number ~block_bytes ~bloom
      ~expected_keys =
    let name = file_name ~dir number in
    let expected =
      if prefix_bloom_len > 0 then 2 * max 16 expected_keys
      else max 16 expected_keys
    in
    {
      env;
      writer = Pdb_simio.Env.create_file env name;
      file = name;
      number;
      block_bytes;
      prefix_bloom_len = (if bloom then max 0 prefix_bloom_len else 0);
      offset = 0;
      data = Block.Builder.create ();
      index = ref [];
      filter = (if bloom then Some (Pdb_bloom.Bloom.create expected) else None);
      smallest = None;
      largest = "";
      entries = 0;
      last_prefix = None;
      scratch = Buffer.create footer_size;
    }

  (* Append [buf] in one write, so the block lands inside one extent and a
     [read_view] by the returned handle decodes it in place. *)
  let write_buffer t buf =
    Pdb_simio.Env.append_buffer t.writer buf;
    let h = { offset = t.offset; size = Buffer.length buf } in
    t.offset <- t.offset + Buffer.length buf;
    h

  let write_block t builder =
    let h = write_buffer t (Block.Builder.finish_buffer builder) in
    Block.Builder.reset builder;
    h

  let flush_data_block t =
    if not (Block.Builder.is_empty t.data) then begin
      let last_key = t.largest in
      let h = write_block t t.data in
      t.index := (last_key, h) :: !(t.index)
    end

  (** [add_slice t ikey src pos len] appends an entry whose value is bytes
      [[pos, pos + len)] of [src]; internal keys must arrive in ascending
      order.  The filter hashes the user key inside [ikey] in place. *)
  let add_slice t ikey src pos len =
    (match t.filter with
     | Some f ->
       (* one filter probe key per distinct user key; [t.largest] is the
          previous entry's key *)
       if
         t.entries = 0
         || not (Pdb_kvs.Internal_key.same_user_key t.largest ikey)
       then begin
         let ulen = String.length ikey - Pdb_kvs.Internal_key.trailer_size in
         Pdb_bloom.Bloom.add_range f ikey 0 ulen;
         (* keys arrive sorted, so consecutive dedupe covers all repeats
            of a prefix *)
         if t.prefix_bloom_len > 0 && ulen >= t.prefix_bloom_len then begin
           let p = String.sub ikey 0 t.prefix_bloom_len in
           let seen =
             match t.last_prefix with
             | Some last -> String.equal last p
             | None -> false
           in
           if not seen then begin
             Pdb_bloom.Bloom.add f (prefix_tag ^ p);
             t.last_prefix <- Some p
           end
         end
       end
     | None -> ());
    if t.entries = 0 then t.smallest <- Some ikey;
    t.largest <- ikey;
    t.entries <- t.entries + 1;
    Block.Builder.add_slice t.data ikey src pos len;
    if Block.Builder.current_size_estimate t.data >= t.block_bytes then
      flush_data_block t

  (** [add t ikey value] appends an entry; internal keys must arrive in
      ascending order. *)
  let add t ikey value = add_slice t ikey value 0 (String.length value)

  let estimated_size t =
    t.offset + Block.Builder.current_size_estimate t.data

  let entry_count t = t.entries

  (** [finish t] writes filter, index and footer, syncs the file, and
      returns the table's metadata.  Empty builders produce no file and
      return [None]. *)
  let finish t =
    if t.entries = 0 then begin
      Pdb_simio.Env.close t.writer;
      Pdb_simio.Env.delete t.env t.file;
      None
    end
    else begin
      flush_data_block t;
      (* filter block *)
      let filter_handle =
        match t.filter with
        | Some f ->
          let raw = Pdb_bloom.Bloom.encode f in
          Pdb_simio.Env.append t.writer raw;
          let h = { offset = t.offset; size = String.length raw } in
          t.offset <- t.offset + String.length raw;
          h
        | None -> { offset = 0; size = 0 }
      in
      (* index block *)
      let index_builder = Block.Builder.create () in
      List.iter
        (fun (last_key, h) ->
          Buffer.clear t.scratch;
          encode_handle t.scratch h;
          Block.Builder.add index_builder last_key (Buffer.contents t.scratch))
        (List.rev !(t.index));
      let index_handle = write_block t index_builder in
      (* footer *)
      let buf = t.scratch in
      Buffer.clear buf;
      Pdb_util.Varint.put_fixed32 buf filter_handle.offset;
      Pdb_util.Varint.put_fixed32 buf filter_handle.size;
      Pdb_util.Varint.put_fixed32 buf index_handle.offset;
      Pdb_util.Varint.put_fixed32 buf index_handle.size;
      Pdb_util.Varint.put_fixed32 buf t.entries;
      Pdb_util.Varint.put_fixed32 buf magic;
      Pdb_util.Varint.put_fixed32 buf t.prefix_bloom_len;
      ignore (write_buffer t buf);
      Pdb_simio.Env.sync t.writer;
      Pdb_simio.Env.close t.writer;
      match t.smallest with
      | None -> assert false
      | Some smallest ->
        Some
          {
            number = t.number;
            file_size = t.offset;
            entries = t.entries;
            smallest;
            largest = t.largest;
          }
    end
end

(** The bloom filter of an open table.  Eager opens decode it immediately;
    summary-guided opens defer the read until the first probe actually
    needs it, so tables touched only by filtered-out seeks never pay it. *)
type filter_slot =
  | No_filter
  | Loaded of Pdb_bloom.Bloom.t
  | Lazy of handle

(* The block cache a reader last loaded through, with its interned file. *)
type interned =
  | Not_interned
  | Interned of Block_cache.t * Block_cache.file

(** An open table: index block resident in memory (the paper's cached
    index blocks), decoded once at open into parallel arrays so a probe
    binary-searches keys and reads handles without decoding anything;
    data blocks go through the shared block cache. *)
type reader = {
  env : Pdb_simio.Env.t;
  name : string;
  meta : meta;
  keys : string array; (* each data block's last key, ascending *)
  offsets : int array; (* and its handle *)
  sizes : int array;
  index_handle : handle; (* [size] is the index's resident footprint *)
  filter_handle : handle;
  prefix_len : int;
  mutable filter : filter_slot;
  mutable on_filter_load : (unit -> unit) option;
      (* notified when a Lazy filter materialises — the table cache
         re-weighs the entry, whose resident footprint just changed *)
  mutable interned : interned;
}

let ikey_compare = Pdb_kvs.Internal_key.compare

(* Decode the index block at [handle] in [name] into its keys and handles,
   in order, reading the block in place. *)
let read_index env name ~hint (handle : handle) =
  let data, pos =
    Pdb_simio.Env.read_view env name ~pos:handle.offset ~len:handle.size
      ~hint
  in
  let it =
    Block.iterator ~compare:ikey_compare
      (Block.decode_view data ~pos ~len:handle.size)
  in
  let sl = Pdb_kvs.Iter.slice () in
  let entries = ref [] in
  it.Pdb_kvs.Iter.seek_to_first ();
  while it.Pdb_kvs.Iter.valid () do
    it.Pdb_kvs.Iter.value_slice sl;
    let offset, p = Pdb_util.Varint.get_uvarint sl.src sl.pos in
    let size, _ = Pdb_util.Varint.get_uvarint sl.src p in
    entries := (it.Pdb_kvs.Iter.key (), offset, size) :: !entries;
    it.Pdb_kvs.Iter.next ()
  done;
  let entries = Array.of_list (List.rev !entries) in
  ( Array.map (fun (k, _, _) -> k) entries,
    Array.map (fun (_, o, _) -> o) entries,
    Array.map (fun (_, _, z) -> z) entries )

(* Decode the filter at [handle] in [name], reading it in place. *)
let read_filter env name ~hint (handle : handle) =
  let data, pos =
    Pdb_simio.Env.read_view env name ~pos:handle.offset ~len:handle.size
      ~hint
  in
  Pdb_bloom.Bloom.decode_view data ~pos

(* The footer's [i]-th fixed32 field, read in place. *)
let read_footer env name ~size ~hint =
  let data, pos =
    Pdb_simio.Env.read_view env name ~pos:(size - footer_size)
      ~len:footer_size ~hint
  in
  fun i -> Pdb_util.Varint.get_fixed32 data (pos + (4 * i))

(** [open_reader ?hint env ~dir meta] opens a table, reading footer, index
    and filter.  Cold point-lookups pay three random reads; compaction
    passes [~hint:Sequential_read] since it streams its freshly-written
    inputs. *)
let open_reader ?(hint = Pdb_simio.Device.Random_read) env ~dir (meta : meta) =
  let name = file_name ~dir meta.number in
  let size = Pdb_simio.Env.file_size env name in
  let field = read_footer env name ~size ~hint in
  let filter_handle = { offset = field 0; size = field 1 } in
  let index_handle = { offset = field 2; size = field 3 } in
  let prefix_len = field 6 in
  if field 5 <> magic then
    failwith (Printf.sprintf "Table.open_reader %s: bad magic" name);
  let keys, offsets, sizes = read_index env name ~hint index_handle in
  let filter =
    if filter_handle.size = 0 then No_filter
    else Loaded (read_filter env name ~hint filter_handle)
  in
  {
    env;
    name;
    meta;
    keys;
    offsets;
    sizes;
    index_handle;
    filter_handle;
    prefix_len;
    filter;
    on_filter_load = None;
    interned = Not_interned;
  }

(** [open_via_summary env ~dir meta summary] reopens an evicted table
    guided by its {!Index_summary}: the footer read is skipped entirely
    (the summary retains the handles), the index read is billed as one
    inter-sample slice (the bytes beyond it are refunded — the summary
    bounds where in the index any key lives), and the filter is left
    {!Lazy} until a probe needs it. *)
let open_via_summary ?(hint = Pdb_simio.Device.Random_read) env ~dir
    (meta : meta) summary =
  let name = file_name ~dir meta.number in
  let index_off, index_size = Index_summary.index_handle summary in
  let keys, offsets, sizes =
    read_index env name ~hint { offset = index_off; size = index_size }
  in
  let slice = Index_summary.slice_bytes summary in
  let excess = index_size - slice in
  if excess > 0 then
    Pdb_simio.Clock.refund
      (Pdb_simio.Env.clock env)
      (float_of_int excess *. (Pdb_simio.Env.device env).Pdb_simio.Device.read_byte_ns);
  let filter_off, filter_size = Index_summary.filter_handle summary in
  {
    env;
    name;
    meta;
    keys;
    offsets;
    sizes;
    index_handle = { offset = index_off; size = index_size };
    filter_handle = { offset = filter_off; size = filter_size };
    prefix_len = Index_summary.prefix_len summary;
    filter =
      (if filter_size = 0 then No_filter
       else Lazy { offset = filter_off; size = filter_size });
    on_filter_load = None;
    interned = Not_interned;
  }

(* Materialise a lazy filter, charging the deferred random read. *)
let load_filter r =
  match r.filter with
  | No_filter -> None
  | Loaded f -> Some f
  | Lazy h ->
    let f = read_filter r.env r.name ~hint:Pdb_simio.Device.Random_read h in
    r.filter <- Loaded f;
    (match r.on_filter_load with Some notify -> notify () | None -> ());
    Some f

(** [set_on_filter_load r f] registers a one-per-reader hook run when a
    deferred filter materialises (no-op if already resident or absent). *)
let set_on_filter_load r f = r.on_filter_load <- Some f

(** [may_contain_hashed r h1 h2] is [may_contain] for a key whose
    {!Pdb_bloom.Bloom.hash1}/[hash2] are [h1]/[h2]. *)
let may_contain_hashed r h1 h2 =
  match load_filter r with
  | Some f -> Pdb_bloom.Bloom.mem_hashed f h1 h2
  | None -> true

(** [may_contain r user_key] consults the table's bloom filter; [true] when
    no filter is attached. *)
let may_contain r user_key =
  let len = String.length user_key in
  may_contain_hashed r
    (Pdb_bloom.Bloom.hash1 user_key 0 len)
    (Pdb_bloom.Bloom.hash2 user_key 0 len)

(** [may_contain_prefix r prefix] is [false] only when the table was built
    with [prefix_bloom_len = String.length prefix] and its filter proves no
    stored user key starts with [prefix]. *)
let may_contain_prefix r prefix =
  if r.prefix_len <= 0 || String.length prefix <> r.prefix_len then true
  else
    match load_filter r with
    | Some f -> Pdb_bloom.Bloom.mem f (prefix_tag ^ prefix)
    | None -> true

let has_filter r = match r.filter with No_filter -> false | _ -> true
let filter_resident r = match r.filter with Loaded _ -> true | _ -> false
let prefix_len r = r.prefix_len

(** In-memory footprint of the open table (index + filter), for Table 5.4.
    A still-lazy filter is counted at its on-disk size — the decoded bloom
    is the bit array plus a small header, so the two agree. *)
let resident_bytes r =
  r.index_handle.size
  + (match r.filter with
     | Loaded f -> Pdb_bloom.Bloom.size_bytes f
     | Lazy h -> h.size
     | No_filter -> 0)

(** [summarize ~stride r] digests an open table into an {!Index_summary}
    capturing its handles and actual resident footprint. *)
let summarize ~stride r =
  Index_summary.build ~stride ~number:r.meta.number ~entries:r.meta.entries
    ~index_handle:(r.index_handle.offset, r.index_handle.size)
    ~filter_handle:(r.filter_handle.offset, r.filter_handle.size)
    ~prefix_len:r.prefix_len
    ~index_bytes:r.index_handle.size
    ~filter_bytes:
      (match r.filter with
       | Loaded f -> Pdb_bloom.Bloom.size_bytes f
       | Lazy h -> h.size
       | No_filter -> 0)
    (List.init (Array.length r.keys) (fun i ->
         (r.keys.(i), (r.offsets.(i), r.sizes.(i)))))

(* The first block whose last key is >= [ikey] — the only one that may
   hold the first entry >= [ikey]; [Array.length r.keys] if none. *)
let find_block r ikey =
  let lo = ref 0 and hi = ref (Array.length r.keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if ikey_compare r.keys.(mid) ikey < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* [r]'s file as interned by [cache]: remembered across loads, so a block
   load hashes no path, and interned again once [cache] dropped it. *)
let interned_file r cache =
  match r.interned with
  | Interned (c, f) when c == cache && Block_cache.live f -> f
  | Interned _ | Not_interned ->
    let f = Block_cache.intern cache r.name in
    r.interned <- Interned (cache, f);
    f

(* The decoded data block at index position [i]. *)
let load_block r ~cache ~hint i =
  Block_cache.load cache r.env (interned_file r cache) ~file:r.name
    ~offset:r.offsets.(i) ~size:r.sizes.(i) ~hint

(** [get r ~cache ~hint ikey] returns the first entry with internal key >=
    [ikey], reading at most one data block. *)
let get r ~cache ~hint ikey =
  let i = find_block r ikey in
  if i >= Array.length r.keys then None
  else begin
    let block = load_block r ~cache ~hint i in
    let it = Block.iterator ~compare:ikey_compare block in
    it.Pdb_kvs.Iter.seek ikey;
    if it.Pdb_kvs.Iter.valid () then
      Some (it.Pdb_kvs.Iter.key (), it.Pdb_kvs.Iter.value ())
    else None
  end

(** [iterator r ~cache ~hint] is a two-level iterator over the table. *)
let iterator r ~cache ~hint =
  let n = Array.length r.keys in
  (* the index position of the current data block; [n] once exhausted *)
  let pos = ref n in
  (* the current data block's iterator; [Iter.empty] once the index is
     exhausted, so the accessors never allocate an option *)
  let data_it = ref Pdb_kvs.Iter.empty in
  let position i =
    pos := i;
    data_it :=
      if i < n then
        Block.iterator ~compare:ikey_compare (load_block r ~cache ~hint i)
      else Pdb_kvs.Iter.empty
  in
  let skip_exhausted () =
    while !pos < n && not (!data_it.Pdb_kvs.Iter.valid ()) do
      position (!pos + 1);
      !data_it.Pdb_kvs.Iter.seek_to_first ()
    done
  in
  let current () =
    let it = !data_it in
    if it.Pdb_kvs.Iter.valid () then it
    else invalid_arg "Table.iterator: iterator is not valid"
  in
  {
    Pdb_kvs.Iter.seek_to_first =
      (fun () ->
        position 0;
        !data_it.Pdb_kvs.Iter.seek_to_first ();
        skip_exhausted ());
    seek =
      (fun target ->
        position (find_block r target);
        !data_it.Pdb_kvs.Iter.seek target;
        skip_exhausted ());
    next =
      (fun () ->
        let it = !data_it in
        if it.Pdb_kvs.Iter.valid () then it.Pdb_kvs.Iter.next ();
        skip_exhausted ());
    valid = (fun () -> !data_it.Pdb_kvs.Iter.valid ());
    key = (fun () -> (current ()).Pdb_kvs.Iter.key ());
    value = (fun () -> (current ()).Pdb_kvs.Iter.value ());
    value_slice = (fun sl -> (current ()).Pdb_kvs.Iter.value_slice sl);
  }

(** [recover_meta env ~dir ~number] reconstructs a table's metadata from
    the file alone — the repair path when the MANIFEST is lost.  Reads the
    footer and index, and the first data block for the smallest key; the
    largest key is the index's final entry. *)
let recover_meta env ~dir ~number =
  let name = file_name ~dir number in
  let file_size = Pdb_simio.Env.file_size env name in
  let probe =
    { number; file_size; entries = 0; smallest = ""; largest = "" }
  in
  let reader = open_reader ~hint:Pdb_simio.Device.Sequential_read env ~dir probe in
  (* entry count lives in the footer *)
  let entries =
    read_footer env name ~size:file_size
      ~hint:Pdb_simio.Device.Sequential_read 4
  in
  let cache = Block_cache.create ~capacity:(1 lsl 16) in
  let it =
    iterator reader ~cache ~hint:Pdb_simio.Device.Sequential_read
  in
  it.Pdb_kvs.Iter.seek_to_first ();
  if not (it.Pdb_kvs.Iter.valid ()) then
    failwith (Printf.sprintf "Table.recover_meta %s: empty table" name);
  { number; file_size; entries; smallest = it.Pdb_kvs.Iter.key ();
    largest = reader.keys.(Array.length reader.keys - 1) }
