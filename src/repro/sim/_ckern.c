/* Compiled engine kernel (REPRO_COMPILED): the hot loop of
 * repro.sim.core, both repro.sim.equeue queue implementations, and the
 * message constructors behind the repro.core.messages free-lists,
 * hand-written against the CPython C API.
 *
 * Design contract (see repro/sim/compiled.py and docs/PERFORMANCE.md):
 *
 * - The pure-Python classes stay the single source of truth for object
 *   layout.  bind() reads the __slots__ member-descriptor offsets off
 *   Event/Timeout/Process/Simulator/Request/Response at activation time
 *   and the C code drives those exact objects through direct slot
 *   access — there is no parallel compiled object model, so the two
 *   legs cannot disagree structurally.
 * - Every algorithm here is a line-for-line transliteration of the
 *   Python it replaces, including the lazy-deletion/compaction and
 *   calendar rebalance triggers (digest-visible) and the riding-push
 *   slot-table/high-water-mark logic.  Pop order is total (when, seq)
 *   order in both legs, so heap layout and qsort instability are
 *   digest-neutral by construction.
 * - Patched methods are exposed as instancemethod-wrapped C functions
 *   (repro/sim/compiled.py installs/uninstalls them), so activation is
 *   reversible within one process — that is what makes the same-process
 *   `perf --ab-compiled` harness possible.
 *
 * Supported CPython: 3.9 - 3.12 (PyMemberDescrObject layout and the
 * fastcall APIs used here are stable across that span).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* bound state: classes, slot offsets, interned names, singletons      */
/* ------------------------------------------------------------------ */

#define REQ_NFIELDS 12
#define RESP_NFIELDS 8

typedef struct {
    int bound;
    /* classes (strong refs) from repro.sim.core / repro.core.messages */
    PyObject *EventType, *TimeoutType, *ProcessType, *SimulatorType;
    PyObject *RequestType, *ResponseType;
    PyObject *SimError;       /* SimulationError */
    PyObject *riding_marker;  /* core._RIDING (identity-compared) */
    PyObject *empty_list, *empty_dict;  /* messages singletons */
    /* Event slot offsets (shared by every Event subclass) */
    Py_ssize_t ev_sim, ev_cb0, ev_cbs, ev_ok, ev_value, ev_name, ev_riders;
    Py_ssize_t to_delay;
    Py_ssize_t pr_gen, pr_waiting, pr_send, pr_throw, pr_waitcb;
    Py_ssize_t sim_now, sim_riders_pending, sim_open, sim_floors,
               sim_hwm, sim_push;
    Py_ssize_t req_off[REQ_NFIELDS], resp_off[RESP_NFIELDS];
    /* interned strings */
    PyObject *str_timeout, *str_fused, *str_stopvalue, *str_push,
             *str_materialize, *str_ok_attr, *str_value_attr,
             *str_riders_attr, *str_dispatch;
    PyObject *req_names[REQ_NFIELDS], *resp_names[RESP_NFIELDS];
} KState;

static KState K;

static const char *REQ_FIELDS[REQ_NFIELDS] = {
    "kind", "txn_id", "shard", "coord_node", "read_keys", "write_keys",
    "versions", "write_values", "spec", "pre_read", "reply_to",
    "value_bytes",
};
/* which Request fields default to the shared empty list/dict/None:
 * 0 = stored raw (required positional), 1 = _EMPTY_LIST, 2 = _EMPTY_DICT,
 * 3 = plain None */
static const char REQ_DEFAULT[REQ_NFIELDS] = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 2, 3, 3,
};
static const char *RESP_FIELDS[RESP_NFIELDS] = {
    "kind", "txn_id", "shard", "ok", "read_values", "versions",
    "write_values", "reason",
};
static const char RESP_DEFAULT[RESP_NFIELDS] = {
    0, 0, 0, 0, 2, 2, 2, 3,
};

/* ------------------------------------------------------------------ */
/* slot access helpers                                                 */
/* ------------------------------------------------------------------ */

#define SLOT(o, off) (*(PyObject **)((char *)(o) + (off)))

/* store a new reference (steals v); decrefs the old value */
static inline void
slot_setref(PyObject *o, Py_ssize_t off, PyObject *v)
{
    PyObject *old = SLOT(o, off);
    SLOT(o, off) = v;
    Py_XDECREF(old);
}

static inline void
slot_set(PyObject *o, Py_ssize_t off, PyObject *v)
{
    Py_INCREF(v);
    slot_setref(o, off, v);
}

static inline int
is_event(PyObject *o)
{
    PyTypeObject *t = Py_TYPE(o);
    return (PyObject *)t == K.EventType
        || PyType_IsSubtype(t, (PyTypeObject *)K.EventType);
}

static inline int
is_sim(PyObject *o)
{
    PyTypeObject *t = Py_TYPE(o);
    return (PyObject *)t == K.SimulatorType
        || PyType_IsSubtype(t, (PyTypeObject *)K.SimulatorType);
}

/* event._ok as a borrowed ref; NULL slot reads as None (uninitialized
 * slots never occur on engine-created events; this is belt-and-braces) */
static inline PyObject *
ev_ok(PyObject *ev)
{
    PyObject *ok = SLOT(ev, K.ev_ok);
    return ok ? ok : Py_None;
}

/* ------------------------------------------------------------------ */
/* event firing: dispatch + riders (transliterates the drain loops)    */
/* ------------------------------------------------------------------ */

/* Run the callbacks of an already-marked event.  Mirrors the inlined
 * dispatch in the Python drain loops / Event._dispatch: clear the
 * slots first, then call.  Returns 0, or -1 with an exception set. */
static int
dispatch_slots(PyObject *ev)
{
    PyObject *cb0 = SLOT(ev, K.ev_cb0);
    PyObject *cbs = SLOT(ev, K.ev_cbs);
    if (cb0 == NULL)
        cb0 = Py_None;
    if (cbs == NULL)
        cbs = Py_None;
    Py_INCREF(cb0);
    Py_INCREF(cbs);
    if (cb0 != Py_None) {
        slot_set(ev, K.ev_cb0, Py_None);
        slot_set(ev, K.ev_cbs, Py_None);
        PyObject *r = PyObject_CallOneArg(cb0, ev);
        if (r == NULL)
            goto error;
        Py_DECREF(r);
        if (cbs != Py_None) {
            for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
                PyObject *fn = PyList_GET_ITEM(cbs, i);
                Py_INCREF(fn);
                r = PyObject_CallOneArg(fn, ev);
                Py_DECREF(fn);
                if (r == NULL)
                    goto error;
                Py_DECREF(r);
            }
        }
    }
    else if (cbs != Py_None && PyList_GET_SIZE(cbs) > 0) {
        slot_set(ev, K.ev_cbs, Py_None);
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(cbs); i++) {
            PyObject *fn = PyList_GET_ITEM(cbs, i);
            Py_INCREF(fn);
            PyObject *r = PyObject_CallOneArg(fn, ev);
            Py_DECREF(fn);
            if (r == NULL)
                goto error;
            Py_DECREF(r);
        }
    }
    Py_DECREF(cb0);
    Py_DECREF(cbs);
    return 0;
error:
    Py_DECREF(cb0);
    Py_DECREF(cbs);
    return -1;
}

/* sim._riders_pending += delta (the slot holds a Python int) */
static int
riders_pending_add(PyObject *sim, long delta)
{
    PyObject *cur = SLOT(sim, K.sim_riders_pending);
    long v = PyLong_AsLong(cur);
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *nv = PyLong_FromLong(v + delta);
    if (nv == NULL)
        return -1;
    slot_setref(sim, K.sim_riders_pending, nv);
    return 0;
}

/* Fire a popped host's rider list in attach order (the inlined rider
 * loop of the Python drains).  Cancelled riders are skipped. */
static int
fire_riders_c(PyObject *sim, PyObject *riders)
{
    if (!PyList_Check(riders))
        return 0;  /* the () _RIDING marker: nothing to fire */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(riders); i++) {
        PyObject *pair = PyList_GET_ITEM(riders, i);
        Py_INCREF(pair);
        PyObject *rev = PyTuple_GET_ITEM(pair, 0);
        PyObject *rval = PyTuple_GET_ITEM(pair, 1);
        Py_INCREF(rev);
        Py_INCREF(rval);
        if (is_event(rev)) {
            if (ev_ok(rev) == Py_None) {
                if (riders_pending_add(sim, -1) < 0)
                    goto error;
                slot_set(rev, K.ev_ok, Py_True);
                slot_set(rev, K.ev_value, rval);
                if (dispatch_slots(rev) < 0)
                    goto error;
            }
        }
        else {
            /* foreign rider object: generic attribute path */
            PyObject *ok = PyObject_GetAttr(rev, K.str_ok_attr);
            if (ok == NULL)
                goto error;
            int pending = (ok == Py_None);
            Py_DECREF(ok);
            if (pending) {
                if (riders_pending_add(sim, -1) < 0)
                    goto error;
                if (PyObject_SetAttr(rev, K.str_ok_attr, Py_True) < 0
                    || PyObject_SetAttr(rev, K.str_value_attr, rval) < 0)
                    goto error;
                PyObject *r = PyObject_CallMethodNoArgs(rev, K.str_dispatch);
                if (r == NULL)
                    goto error;
                Py_DECREF(r);
            }
        }
        Py_DECREF(rval);
        Py_DECREF(rev);
        Py_DECREF(pair);
        continue;
    error:
        Py_DECREF(rval);
        Py_DECREF(rev);
        Py_DECREF(pair);
        return -1;
    }
    return 0;
}

/* Fire one popped queue entry: mark + dispatch if still pending, then
 * fire any riders.  Mirrors one iteration of the Python drain loops. */
static int
fire_entry(PyObject *sim, PyObject *ev, PyObject *val)
{
    if (is_event(ev)) {
        if (ev_ok(ev) == Py_None) {
            slot_set(ev, K.ev_ok, Py_True);
            slot_set(ev, K.ev_value, val);
            if (dispatch_slots(ev) < 0)
                return -1;
        }
        PyObject *riders = SLOT(ev, K.ev_riders);
        if (riders != NULL && riders != Py_None) {
            Py_INCREF(riders);
            slot_set(ev, K.ev_riders, Py_None);
            int r = fire_riders_c(sim, riders);
            Py_DECREF(riders);
            return r;
        }
        return 0;
    }
    /* foreign event object: generic attribute path (rare; test-only) */
    PyObject *ok = PyObject_GetAttr(ev, K.str_ok_attr);
    if (ok == NULL)
        return -1;
    int pending = (ok == Py_None);
    Py_DECREF(ok);
    if (pending) {
        if (PyObject_SetAttr(ev, K.str_ok_attr, Py_True) < 0
            || PyObject_SetAttr(ev, K.str_value_attr, val) < 0)
            return -1;
        PyObject *r = PyObject_CallMethodNoArgs(ev, K.str_dispatch);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    PyObject *riders = PyObject_GetAttr(ev, K.str_riders_attr);
    if (riders == NULL)
        return -1;
    if (riders != Py_None) {
        if (PyObject_SetAttr(ev, K.str_riders_attr, Py_None) < 0) {
            Py_DECREF(riders);
            return -1;
        }
        int r = fire_riders_c(sim, riders);
        Py_DECREF(riders);
        return r;
    }
    Py_DECREF(riders);
    return 0;
}

/* sim._now = when */
static int
set_now(PyObject *sim, double when)
{
    PyObject *w = PyFloat_FromDouble(when);
    if (w == NULL)
        return -1;
    slot_setref(sim, K.sim_now, w);
    return 0;
}

/* ------------------------------------------------------------------ */
/* entry vectors, bucket map, bucket-id heap                           */
/* ------------------------------------------------------------------ */

typedef struct {
    double when;
    long long seq;
    PyObject *ev;   /* owned */
    PyObject *val;  /* owned */
} CEntry;

typedef struct {
    CEntry *a;
    Py_ssize_t n, cap;
} EVec;

static int
evec_reserve(EVec *v, Py_ssize_t need)
{
    if (need <= v->cap)
        return 0;
    Py_ssize_t cap = v->cap ? v->cap : 8;
    while (cap < need)
        cap += cap >> 1 ? cap >> 1 : 8;
    CEntry *a = (CEntry *)PyMem_Realloc(v->a, (size_t)cap * sizeof(CEntry));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    v->a = a;
    v->cap = cap;
    return 0;
}

/* takes ownership of e.ev / e.val */
static int
evec_push(EVec *v, CEntry e)
{
    if (evec_reserve(v, v->n + 1) < 0) {
        Py_DECREF(e.ev);
        Py_XDECREF(e.val);
        return -1;
    }
    v->a[v->n++] = e;
    return 0;
}

static void
evec_release(EVec *v, Py_ssize_t from)
{
    for (Py_ssize_t i = from; i < v->n; i++) {
        Py_XDECREF(v->a[i].ev);
        Py_XDECREF(v->a[i].val);
    }
    v->n = 0;
    PyMem_Free(v->a);
    v->a = NULL;
    v->cap = 0;
}

static inline int
entry_lt(const CEntry *a, const CEntry *b)
{
    if (a->when != b->when)
        return a->when < b->when;
    return a->seq < b->seq;
}

static int
entry_cmp_qsort(const void *pa, const void *pb)
{
    const CEntry *a = (const CEntry *)pa, *b = (const CEntry *)pb;
    if (a->when != b->when)
        return a->when < b->when ? -1 : 1;
    return a->seq < b->seq ? -1 : 1;  /* seq unique: never equal */
}

/* open-addressed map: long long bucket id -> EVec* (malloc'd) */
typedef struct {
    long long key;
    EVec *vec;
    char state;  /* 0 empty, 1 used, 2 tombstone */
} MapSlot;

typedef struct {
    MapSlot *slots;
    Py_ssize_t mask;   /* capacity - 1 (capacity is a power of two) */
    Py_ssize_t used;   /* live keys */
    Py_ssize_t fill;   /* live + tombstones */
} BMap;

static int
bmap_init(BMap *m, Py_ssize_t cap)
{
    m->slots = (MapSlot *)PyMem_Calloc((size_t)cap, sizeof(MapSlot));
    if (m->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    m->mask = cap - 1;
    m->used = 0;
    m->fill = 0;
    return 0;
}

static inline size_t
bmap_hash(long long key)
{
    unsigned long long h = (unsigned long long)key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return (size_t)h;
}

static MapSlot *
bmap_find(BMap *m, long long key)
{
    size_t i = bmap_hash(key) & (size_t)m->mask;
    MapSlot *first_tomb = NULL;
    for (;;) {
        MapSlot *s = &m->slots[i];
        if (s->state == 0)
            return first_tomb ? first_tomb : s;
        if (s->state == 2) {
            if (first_tomb == NULL)
                first_tomb = s;
        }
        else if (s->key == key)
            return s;
        i = (i + 1) & (size_t)m->mask;
    }
}

static int bmap_grow(BMap *m);

/* get-or-create the vector for key; NULL on allocation failure */
static EVec *
bmap_put(BMap *m, long long key)
{
    if (3 * (m->fill + 1) >= 2 * (m->mask + 1)) {
        if (bmap_grow(m) < 0)
            return NULL;
    }
    MapSlot *s = bmap_find(m, key);
    if (s->state == 1)
        return s->vec;
    EVec *v = (EVec *)PyMem_Calloc(1, sizeof(EVec));
    if (v == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    if (s->state == 0)
        m->fill++;
    s->state = 1;
    s->key = key;
    s->vec = v;
    m->used++;
    return v;
}

static int
bmap_grow(BMap *m)
{
    Py_ssize_t oldcap = m->mask + 1;
    MapSlot *old = m->slots;
    Py_ssize_t cap = oldcap;
    while (3 * (m->used + 1) >= 2 * cap)
        cap <<= 1;
    if (bmap_init(m, cap) < 0) {
        m->slots = old;
        m->mask = oldcap - 1;
        return -1;
    }
    for (Py_ssize_t i = 0; i < oldcap; i++) {
        if (old[i].state == 1) {
            MapSlot *s = bmap_find(m, old[i].key);
            s->state = 1;
            s->key = old[i].key;
            s->vec = old[i].vec;
            m->used++;
            m->fill++;
        }
    }
    PyMem_Free(old);
    return 0;
}

/* remove and return the vector at key, or NULL if absent */
static EVec *
bmap_pop(BMap *m, long long key)
{
    MapSlot *s = bmap_find(m, key);
    if (s->state != 1)
        return NULL;
    EVec *v = s->vec;
    s->state = 2;
    s->vec = NULL;
    m->used--;
    return v;
}

static void
bmap_dispose(BMap *m, int release_refs)
{
    if (m->slots == NULL)
        return;
    for (Py_ssize_t i = 0; i <= m->mask; i++) {
        if (m->slots[i].state == 1) {
            if (release_refs)
                evec_release(m->slots[i].vec, 0);
            else {
                PyMem_Free(m->slots[i].vec->a);
            }
            PyMem_Free(m->slots[i].vec);
        }
    }
    PyMem_Free(m->slots);
    m->slots = NULL;
    m->mask = -1;
    m->used = 0;
    m->fill = 0;
}

/* min/max over live keys (callers guarantee used > 0) */
static void
bmap_minmax(BMap *m, long long *lo, long long *hi)
{
    int seen = 0;
    for (Py_ssize_t i = 0; i <= m->mask; i++) {
        if (m->slots[i].state == 1) {
            long long k = m->slots[i].key;
            if (!seen) {
                *lo = *hi = k;
                seen = 1;
            }
            else {
                if (k < *lo)
                    *lo = k;
                if (k > *hi)
                    *hi = k;
            }
        }
    }
}

/* long long min-heap for bucket ids */
typedef struct {
    long long *a;
    Py_ssize_t n, cap;
} LHeap;

static int
lheap_reserve(LHeap *h, Py_ssize_t need)
{
    if (need <= h->cap)
        return 0;
    Py_ssize_t cap = h->cap ? h->cap : 16;
    while (cap < need)
        cap <<= 1;
    long long *a = (long long *)PyMem_Realloc(h->a,
                                              (size_t)cap * sizeof(long long));
    if (a == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    h->a = a;
    h->cap = cap;
    return 0;
}

static int
lheap_push(LHeap *h, long long v)
{
    if (lheap_reserve(h, h->n + 1) < 0)
        return -1;
    Py_ssize_t i = h->n++;
    h->a[i] = v;
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (h->a[p] <= h->a[i])
            break;
        long long t = h->a[p];
        h->a[p] = h->a[i];
        h->a[i] = t;
        i = p;
    }
    return 0;
}

static long long
lheap_pop(LHeap *h)
{
    long long top = h->a[0];
    h->a[0] = h->a[--h->n];
    Py_ssize_t i = 0, n = h->n;
    for (;;) {
        Py_ssize_t l = 2 * i + 1, r = l + 1, s = i;
        if (l < n && h->a[l] < h->a[s])
            s = l;
        if (r < n && h->a[r] < h->a[s])
            s = r;
        if (s == i)
            break;
        long long t = h->a[s];
        h->a[s] = h->a[i];
        h->a[i] = t;
        i = s;
    }
    return top;
}

/* when -> bucket id: exact for power-of-two widths (like Python's
 * int(when * inv)); saturated so pathological magnitudes stay defined
 * (saturation keeps id order monotone in `when`, which is all pop
 * order relies on). */
static inline long long
bucket_id(double when, double inv)
{
    double b = when * inv;
    if (b >= 9.0e18)
        return (long long)4611686018427387904LL;  /* 2^62 */
    if (b <= -9.0e18)
        return (long long)-4611686018427387904LL;
    return (long long)b;  /* C truncation == Python int() toward zero */
}

/* ------------------------------------------------------------------ */
/* CHeapQueue: the binary-heap scheduler (HeapEventQueue)              */
/* ------------------------------------------------------------------ */

/* Tuning constants mirrored from repro.sim.equeue (digest-visible). */
#define COMPACT_MIN_CANCELLED 64
#define DENSE_BUCKET 96
#define SPARSE_ACTS 32
#define SPARSE_PUSHES_PER_ACT 16
#define TARGET_LOAD 4.0
#define MIN_WIDTH 9.5367431640625e-07   /* 2^-20 */
#define MAX_WIDTH 16777216.0            /* 2^24 */
#define REBALANCE_MIN 128
/* Simulator._riding_push slot-table shed trigger. */
#define OPEN_SHED_MIN 8192

typedef struct {
    PyObject_HEAD
    long long seq;
    long long cancelled;
    EVec h;  /* binary min-heap on (when, seq) */
} CHeap;

static void
heap_siftup(EVec *h, Py_ssize_t i)
{
    CEntry e = h->a[i];
    while (i > 0) {
        Py_ssize_t p = (i - 1) >> 1;
        if (!entry_lt(&e, &h->a[p]))
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = e;
}

static void
heap_siftdown(EVec *h, Py_ssize_t i)
{
    Py_ssize_t n = h->n;
    CEntry e = h->a[i];
    for (;;) {
        Py_ssize_t l = 2 * i + 1, r = l + 1, s = i;
        const CEntry *best = &e;
        if (l < n && entry_lt(&h->a[l], best)) {
            s = l;
            best = &h->a[l];
        }
        if (r < n && entry_lt(&h->a[r], best))
            s = r;
        if (s == i)
            break;
        h->a[i] = h->a[s];
        i = s;
    }
    h->a[i] = e;
}

static void
heap_heapify(EVec *h)
{
    for (Py_ssize_t i = h->n / 2 - 1; i >= 0; i--)
        heap_siftdown(h, i);
}

/* push: takes new references to ev/val */
static int
cheap_push_c(CHeap *q, double when, PyObject *ev, PyObject *val)
{
    CEntry e;
    q->seq += 1;
    e.when = when;
    e.seq = q->seq;
    Py_INCREF(ev);
    Py_XINCREF(val);
    e.ev = ev;
    e.val = val ? val : Py_None;
    if (val == NULL)
        Py_INCREF(Py_None);
    if (evec_push(&q->h, e) < 0)
        return -1;
    heap_siftup(&q->h, q->h.n - 1);
    return 0;
}

/* pop the root into *out (ownership transferred); 0 if empty, 1 ok */
static int
cheap_pop_c(CHeap *q, CEntry *out)
{
    EVec *h = &q->h;
    if (h->n == 0)
        return 0;
    *out = h->a[0];
    h->n -= 1;
    if (h->n > 0) {
        h->a[0] = h->a[h->n];
        heap_siftdown(h, 0);
    }
    return 1;
}

/* keep an entry through compaction iff its event is still pending or
 * still carries riders (stale hosts must pop to fire their riders) */
static int
entry_live(PyObject *ev)
{
    if (is_event(ev)) {
        if (ev_ok(ev) == Py_None)
            return 1;
        PyObject *r = SLOT(ev, K.ev_riders);
        return r != NULL && r != Py_None;
    }
    PyObject *ok = PyObject_GetAttr(ev, K.str_ok_attr);
    if (ok == NULL)
        return -1;
    int live = (ok == Py_None);
    Py_DECREF(ok);
    if (live)
        return 1;
    PyObject *r = PyObject_GetAttr(ev, K.str_riders_attr);
    if (r == NULL)
        return -1;
    live = (r != Py_None);
    Py_DECREF(r);
    return live;
}

static PyObject *
cheap_push(CHeap *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push(when, event, value)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (cheap_push_c(q, when, args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
entry_tuple(CEntry *e)
{
    /* consumes e's references on success or failure */
    PyObject *w = PyFloat_FromDouble(e->when);
    PyObject *s = w ? PyLong_FromLongLong(e->seq) : NULL;
    PyObject *t = s ? PyTuple_New(4) : NULL;
    if (t == NULL) {
        Py_XDECREF(w);
        Py_XDECREF(s);
        Py_DECREF(e->ev);
        Py_DECREF(e->val);
        return NULL;
    }
    PyTuple_SET_ITEM(t, 0, w);
    PyTuple_SET_ITEM(t, 1, s);
    PyTuple_SET_ITEM(t, 2, e->ev);
    PyTuple_SET_ITEM(t, 3, e->val);
    return t;
}

static PyObject *
cheap_pop_min(CHeap *q, PyObject *Py_UNUSED(ignored))
{
    CEntry e;
    if (!cheap_pop_c(q, &e))
        Py_RETURN_NONE;
    return entry_tuple(&e);
}

static PyObject *
cheap_peek_time(CHeap *q, PyObject *Py_UNUSED(ignored))
{
    if (q->h.n == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(q->h.a[0].when);
}

static PyObject *
cheap_abandon(CHeap *q, PyObject *Py_UNUSED(ignored))
{
    q->cancelled += 1;
    if (q->cancelled >= COMPACT_MIN_CANCELLED
        && 2 * q->cancelled >= q->h.n) {
        EVec *h = &q->h;
        Py_ssize_t w = 0;
        for (Py_ssize_t i = 0; i < h->n; i++) {
            int live = entry_live(h->a[i].ev);
            if (live < 0)
                return NULL;
            if (live)
                h->a[w++] = h->a[i];
            else {
                Py_DECREF(h->a[i].ev);
                Py_DECREF(h->a[i].val);
            }
        }
        h->n = w;
        heap_heapify(h);
        q->cancelled = 0;
    }
    Py_RETURN_NONE;
}

static PyObject *
cheap_drain_all(CHeap *q, PyObject *sim)
{
    CEntry e;
    while (cheap_pop_c(q, &e)) {
        if (set_now(sim, e.when) < 0)
            goto error;
        if (fire_entry(sim, e.ev, e.val) < 0)
            goto error;
        Py_DECREF(e.ev);
        Py_DECREF(e.val);
    }
    Py_RETURN_NONE;
error:
    Py_DECREF(e.ev);
    Py_DECREF(e.val);
    return NULL;
}

static PyObject *
cheap_drain_until(CHeap *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "drain_until(sim, until)");
        return NULL;
    }
    PyObject *sim = args[0];
    double until = PyFloat_AsDouble(args[1]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    while (q->h.n > 0 && q->h.a[0].when <= until) {
        CEntry e;
        (void)cheap_pop_c(q, &e);
        if (set_now(sim, e.when) < 0 || fire_entry(sim, e.ev, e.val) < 0) {
            Py_DECREF(e.ev);
            Py_DECREF(e.val);
            return NULL;
        }
        Py_DECREF(e.ev);
        Py_DECREF(e.val);
    }
    Py_RETURN_NONE;
}

static Py_ssize_t
cheap_len(CHeap *q)
{
    return q->h.n;
}

static PyObject *
cheap_get_seq(CHeap *q, void *closure)
{
    return PyLong_FromLongLong(q->seq);
}

static PyObject *
cheap_get_kind(CHeap *q, void *closure)
{
    return PyUnicode_FromString("heap");
}

static int
cheap_traverse(CHeap *q, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < q->h.n; i++) {
        Py_VISIT(q->h.a[i].ev);
        Py_VISIT(q->h.a[i].val);
    }
    return 0;
}

static int
cheap_clear(CHeap *q)
{
    EVec tmp = q->h;
    q->h.a = NULL;
    q->h.n = 0;
    q->h.cap = 0;
    evec_release(&tmp, 0);
    return 0;
}

static void
cheap_dealloc(CHeap *q)
{
    PyObject_GC_UnTrack(q);
    cheap_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static int
cheap_init(CHeap *q, PyObject *args, PyObject *kwargs)
{
    if (!PyArg_ParseTuple(args, ""))
        return -1;
    return 0;
}

static PyMethodDef cheap_methods[] = {
    {"push", (PyCFunction)(void (*)(void))cheap_push, METH_FASTCALL, NULL},
    {"pop_min", (PyCFunction)cheap_pop_min, METH_NOARGS, NULL},
    {"peek_time", (PyCFunction)cheap_peek_time, METH_NOARGS, NULL},
    {"abandon", (PyCFunction)cheap_abandon, METH_NOARGS, NULL},
    {"drain_all", (PyCFunction)cheap_drain_all, METH_O, NULL},
    {"drain_until", (PyCFunction)(void (*)(void))cheap_drain_until,
     METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef cheap_getset[] = {
    {"seq", (getter)cheap_get_seq, NULL, NULL, NULL},
    {"kind", (getter)cheap_get_kind, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods cheap_as_sequence = {
    .sq_length = (lenfunc)cheap_len,
};

static PyTypeObject CHeapType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckern.CHeapQueue",
    .tp_basicsize = sizeof(CHeap),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled binary-heap event queue (HeapEventQueue twin).",
    .tp_methods = cheap_methods,
    .tp_getset = cheap_getset,
    .tp_as_sequence = &cheap_as_sequence,
    .tp_traverse = (traverseproc)cheap_traverse,
    .tp_clear = (inquiry)cheap_clear,
    .tp_dealloc = (destructor)cheap_dealloc,
    .tp_init = (initproc)cheap_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* CCalendarQueue: the calendar/bucket scheduler (CalendarEventQueue)  */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    long long seq, removed, cancelled, seq_mark;
    long long cur_id;       /* bids <= cur_id route into cur; -1 = none */
    long long acts;
    double width, inv;
    EVec cur;               /* activated bucket, ascending (when, seq) */
    Py_ssize_t head;        /* live region is cur.a[head .. cur.n) */
    BMap map;               /* bucket id -> EVec* of unsorted entries */
    LHeap bids;
} CCal;

static inline long long
ccal_len(CCal *q)
{
    return q->seq - q->removed;
}

/* append an entry (ownership taken) to the bucket for `when`, or
 * insort it into the active band.  Transliterates CalendarEventQueue.push. */
static int
ccal_push_c(CCal *q, double when, PyObject *ev, PyObject *val)
{
    CEntry e;
    q->seq += 1;
    e.when = when;
    e.seq = q->seq;
    Py_INCREF(ev);
    e.ev = ev;
    if (val == NULL)
        val = Py_None;
    Py_INCREF(val);
    e.val = val;
    long long bid = bucket_id(when, q->inv);
    if (bid <= q->cur_id) {
        /* binary search in the live region [head, n) for the insertion
         * point (ascending (when, seq)), then shift */
        EVec *c = &q->cur;
        if (evec_reserve(c, c->n + 1) < 0) {
            Py_DECREF(e.ev);
            Py_DECREF(e.val);
            return -1;
        }
        Py_ssize_t lo = q->head, hi = c->n;
        while (lo < hi) {
            Py_ssize_t mid = (lo + hi) >> 1;
            if (entry_lt(&c->a[mid], &e))
                lo = mid + 1;
            else
                hi = mid;
        }
        memmove(&c->a[lo + 1], &c->a[lo],
                (size_t)(c->n - lo) * sizeof(CEntry));
        c->a[lo] = e;
        c->n += 1;
        return 0;
    }
    EVec *b = bmap_put(&q->map, bid);
    if (b == NULL) {
        Py_DECREF(e.ev);
        Py_DECREF(e.val);
        return -1;
    }
    if (b->n == 0) {
        if (lheap_push(&q->bids, bid) < 0) {
            Py_DECREF(e.ev);
            Py_DECREF(e.val);
            return -1;
        }
    }
    return evec_push(b, e);
}

/* Re-derive the width from the live span and re-bucket everything.
 * extra: the in-flight bucket a trigger hands over (consumed only on
 * success), may be NULL.  floor > 0 applies the sparse-trigger minimum.
 * Returns 1 rebalanced, 0 declined (nothing mutated), -1 error. */
static int
ccal_rebalance(CCal *q, EVec *extra, double floor_)
{
    long long n = ccal_len(q);
    if (n < 1)
        return 0;
    int have = 0;
    double lo = 0.0, hi = 0.0;
    if (q->map.used > 0) {
        long long blo = 0, bhi = 0;
        bmap_minmax(&q->map, &blo, &bhi);
        lo = (double)blo * q->width;
        hi = ((double)bhi + 1.0) * q->width;
        have = 1;
    }
    if (extra != NULL && extra->n > 0) {
        double plo = extra->a[0].when, phi = extra->a[0].when;
        for (Py_ssize_t i = 1; i < extra->n; i++) {
            double w = extra->a[i].when;
            if (w < plo)
                plo = w;
            if (w > phi)
                phi = w;
        }
        if (!have) {
            lo = plo;
            hi = phi;
            have = 1;
        }
        else {
            if (plo < lo)
                lo = plo;
            if (phi > hi)
                hi = phi;
        }
    }
    if (q->cur.n > q->head) {
        /* cur is sorted ascending: min at head, max at the tail */
        double plo = q->cur.a[q->head].when;
        double phi = q->cur.a[q->cur.n - 1].when;
        if (!have) {
            lo = plo;
            hi = phi;
            have = 1;
        }
        else {
            if (plo < lo)
                lo = plo;
            if (phi > hi)
                hi = phi;
        }
    }
    double target = 0.0;
    if (have) {
        double span = hi - lo;
        if (span > 0.0) {
            double denom = (double)n / TARGET_LOAD;
            if (denom < 8.0)
                denom = 8.0;
            target = span / denom;
        }
    }
    if (floor_ > 0.0 && floor_ > target)
        target = floor_;
    if (target <= 0.0)
        return 0;
    double width = MIN_WIDTH;
    while (width < target && width < MAX_WIDTH)
        width *= 2.0;
    if (width == q->width)
        return 0;

    /* gather every live entry, then re-bucket at the new width */
    EVec all = {NULL, 0, 0};
    Py_ssize_t total = (q->cur.n - q->head) + (extra ? extra->n : 0);
    for (Py_ssize_t i = 0; i <= q->map.mask; i++)
        if (q->map.slots[i].state == 1)
            total += q->map.slots[i].vec->n;
    if (evec_reserve(&all, total) < 0)
        return -1;
    for (Py_ssize_t i = q->head; i < q->cur.n; i++)
        all.a[all.n++] = q->cur.a[i];
    if (extra != NULL) {
        for (Py_ssize_t i = 0; i < extra->n; i++)
            all.a[all.n++] = extra->a[i];
        extra->n = 0;
        PyMem_Free(extra->a);
        extra->a = NULL;
        extra->cap = 0;
    }
    for (Py_ssize_t i = 0; i <= q->map.mask; i++) {
        if (q->map.slots[i].state == 1) {
            EVec *b = q->map.slots[i].vec;
            for (Py_ssize_t j = 0; j < b->n; j++)
                all.a[all.n++] = b->a[j];
            b->n = 0;
        }
    }
    /* entries moved out; dispose the old map + bucket shells */
    bmap_dispose(&q->map, 0);
    q->cur.n = 0;
    q->head = 0;
    PyMem_Free(q->cur.a);
    q->cur.a = NULL;
    q->cur.cap = 0;
    q->bids.n = 0;

    q->width = width;
    q->inv = 1.0 / width;
    if (bmap_init(&q->map, 64) < 0)
        goto fatal;
    for (Py_ssize_t i = 0; i < all.n; i++) {
        long long bid = bucket_id(all.a[i].when, q->inv);
        EVec *b = bmap_put(&q->map, bid);
        if (b == NULL)
            goto fatal;
        if (evec_push(b, all.a[i]) < 0) {
            /* evec_push released this entry's refs on failure */
            for (Py_ssize_t j = i + 1; j < all.n; j++) {
                Py_DECREF(all.a[j].ev);
                Py_DECREF(all.a[j].val);
            }
            all.n = 0;
            PyMem_Free(all.a);
            return -1;
        }
    }
    all.n = 0;
    PyMem_Free(all.a);
    all.a = NULL;
    /* rebuild the id heap from the new map */
    for (Py_ssize_t i = 0; i <= q->map.mask; i++) {
        if (q->map.slots[i].state == 1) {
            if (lheap_push(&q->bids, q->map.slots[i].key) < 0)
                return -1;
        }
    }
    q->cur_id = -1;
    q->acts = 0;
    q->seq_mark = q->seq;
    return 1;
fatal:
    for (Py_ssize_t i = 0; i < all.n; i++) {
        Py_XDECREF(all.a[i].ev);
        Py_XDECREF(all.a[i].val);
    }
    PyMem_Free(all.a);
    return -1;
}

/* Activate the next non-empty bucket into cur.  1 activated, 0 drained,
 * -1 error.  Transliterates CalendarEventQueue._advance, including the
 * digest-visible trigger accounting. */
static int
ccal_advance(CCal *q)
{
    /* the previous band is fully consumed by now; reset the vector so
     * the dead prefix cannot grow without bound */
    if (q->head >= q->cur.n) {
        q->cur.n = 0;
        q->head = 0;
    }
    long long n = ccal_len(q);
    if (q->cur_id == -1 && n >= REBALANCE_MIN
        && 2 * (long long)q->map.used >= n) {
        int r = ccal_rebalance(q, NULL, 0.0);
        if (r < 0)
            return -1;
    }
    while (q->bids.n > 0) {
        long long bid = lheap_pop(&q->bids);
        EVec *b = bmap_pop(&q->map, bid);
        if (b == NULL)
            continue;  /* stale id (compaction emptied the bucket) */
        q->acts += 1;
        int probed = 0;
        if (q->acts >= SPARSE_ACTS) {
            long long pushes = q->seq - q->seq_mark;
            q->acts = 0;
            q->seq_mark = q->seq;
            if (pushes < (long long)SPARSE_PUSHES_PER_ACT * SPARSE_ACTS) {
                probed = 1;
                int r = ccal_rebalance(q, b, 2.0 * q->width);
                if (r < 0) {
                    evec_release(b, 0);
                    PyMem_Free(b);
                    return -1;
                }
                if (r == 1) {
                    PyMem_Free(b->a);
                    PyMem_Free(b);
                    continue;
                }
            }
        }
        if (!probed && b->n > DENSE_BUCKET) {
            int r = ccal_rebalance(q, b, 0.0);
            if (r < 0) {
                evec_release(b, 0);
                PyMem_Free(b);
                return -1;
            }
            if (r == 1) {
                PyMem_Free(b->a);
                PyMem_Free(b);
                continue;
            }
        }
        qsort(b->a, (size_t)b->n, sizeof(CEntry), entry_cmp_qsort);
        PyMem_Free(q->cur.a);
        q->cur = *b;
        q->head = 0;
        PyMem_Free(b);
        q->cur_id = bid;
        return 1;
    }
    return 0;
}

/* pop the minimum live-region entry (ownership out); 1 ok, 0 empty,
 * -1 error */
static int
ccal_pop_c(CCal *q, CEntry *out)
{
    while (q->head >= q->cur.n) {
        int r = ccal_advance(q);
        if (r <= 0)
            return r;
    }
    *out = q->cur.a[q->head];
    q->head += 1;
    q->removed += 1;
    return 1;
}

static PyObject *
ccal_push(CCal *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push(when, event, value)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (ccal_push_c(q, when, args[1], args[2]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ccal_pop_min(CCal *q, PyObject *Py_UNUSED(ignored))
{
    CEntry e;
    int r = ccal_pop_c(q, &e);
    if (r < 0)
        return NULL;
    if (r == 0)
        Py_RETURN_NONE;
    return entry_tuple(&e);
}

static PyObject *
ccal_peek_time(CCal *q, PyObject *Py_UNUSED(ignored))
{
    while (q->head >= q->cur.n) {
        int r = ccal_advance(q);
        if (r < 0)
            return NULL;
        if (r == 0)
            Py_RETURN_NONE;
    }
    return PyFloat_FromDouble(q->cur.a[q->head].when);
}

/* drop every already-triggered entry (keeping stale hosts with riders);
 * transliterates CalendarEventQueue._compact */
static int
ccal_compact(CCal *q)
{
    EVec *c = &q->cur;
    Py_ssize_t w = q->head;
    for (Py_ssize_t i = q->head; i < c->n; i++) {
        int live = entry_live(c->a[i].ev);
        if (live < 0)
            return -1;
        if (live)
            c->a[w++] = c->a[i];
        else {
            Py_DECREF(c->a[i].ev);
            Py_DECREF(c->a[i].val);
        }
    }
    c->n = w;
    long long total = c->n - q->head;
    for (Py_ssize_t i = 0; i <= q->map.mask; i++) {
        if (q->map.slots[i].state != 1)
            continue;
        EVec *b = q->map.slots[i].vec;
        Py_ssize_t bw = 0;
        for (Py_ssize_t j = 0; j < b->n; j++) {
            int live = entry_live(b->a[j].ev);
            if (live < 0)
                return -1;
            if (live)
                b->a[bw++] = b->a[j];
            else {
                Py_DECREF(b->a[j].ev);
                Py_DECREF(b->a[j].val);
            }
        }
        b->n = bw;
        if (bw == 0) {
            /* empty bucket leaves the map; its id goes stale in bids */
            PyMem_Free(b->a);
            PyMem_Free(b);
            q->map.slots[i].state = 2;
            q->map.slots[i].vec = NULL;
            q->map.used--;
        }
        else
            total += bw;
    }
    q->removed = q->seq - total;
    q->cancelled = 0;
    return 0;
}

static PyObject *
ccal_abandon(CCal *q, PyObject *Py_UNUSED(ignored))
{
    q->cancelled += 1;
    if (q->cancelled >= COMPACT_MIN_CANCELLED
        && 2 * q->cancelled >= ccal_len(q)) {
        if (ccal_compact(q) < 0)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
ccal_drain_all(CCal *q, PyObject *sim)
{
    for (;;) {
        while (q->head < q->cur.n) {
            /* move ownership out before firing: callbacks may push into
             * the active band and realloc cur.a */
            CEntry e = q->cur.a[q->head];
            q->head += 1;
            q->removed += 1;
            if (set_now(sim, e.when) < 0
                || fire_entry(sim, e.ev, e.val) < 0) {
                Py_DECREF(e.ev);
                Py_DECREF(e.val);
                return NULL;
            }
            Py_DECREF(e.ev);
            Py_DECREF(e.val);
        }
        int r = ccal_advance(q);
        if (r < 0)
            return NULL;
        if (r == 0)
            Py_RETURN_NONE;
    }
}

static PyObject *
ccal_drain_until(CCal *q, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "drain_until(sim, until)");
        return NULL;
    }
    PyObject *sim = args[0];
    double until = PyFloat_AsDouble(args[1]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    for (;;) {
        while (q->head < q->cur.n) {
            if (q->cur.a[q->head].when > until)
                Py_RETURN_NONE;  /* head stays queued */
            CEntry e = q->cur.a[q->head];
            q->head += 1;
            q->removed += 1;
            if (set_now(sim, e.when) < 0
                || fire_entry(sim, e.ev, e.val) < 0) {
                Py_DECREF(e.ev);
                Py_DECREF(e.val);
                return NULL;
            }
            Py_DECREF(e.ev);
            Py_DECREF(e.val);
        }
        int r = ccal_advance(q);
        if (r < 0)
            return NULL;
        if (r == 0)
            Py_RETURN_NONE;
    }
}

static Py_ssize_t
ccal_sq_len(CCal *q)
{
    return (Py_ssize_t)ccal_len(q);
}

static PyObject *
ccal_get_seq(CCal *q, void *closure)
{
    return PyLong_FromLongLong(q->seq);
}

static PyObject *
ccal_get_kind(CCal *q, void *closure)
{
    return PyUnicode_FromString("calendar");
}

static PyObject *
ccal_get_width(CCal *q, void *closure)
{
    return PyFloat_FromDouble(q->width);
}

static PyObject *
ccal_get_active_buckets(CCal *q, void *closure)
{
    Py_ssize_t n = q->map.used + (q->cur.n > q->head ? 1 : 0);
    return PyLong_FromSsize_t(n);
}

static int
ccal_traverse(CCal *q, visitproc visit, void *arg)
{
    for (Py_ssize_t i = q->head; i < q->cur.n; i++) {
        Py_VISIT(q->cur.a[i].ev);
        Py_VISIT(q->cur.a[i].val);
    }
    if (q->map.slots != NULL) {
        for (Py_ssize_t i = 0; i <= q->map.mask; i++) {
            if (q->map.slots[i].state == 1) {
                EVec *b = q->map.slots[i].vec;
                for (Py_ssize_t j = 0; j < b->n; j++) {
                    Py_VISIT(b->a[j].ev);
                    Py_VISIT(b->a[j].val);
                }
            }
        }
    }
    return 0;
}

static int
ccal_clear_gc(CCal *q)
{
    EVec tmp = q->cur;
    Py_ssize_t head = q->head;
    q->cur.a = NULL;
    q->cur.n = 0;
    q->cur.cap = 0;
    q->head = 0;
    evec_release(&tmp, head);
    bmap_dispose(&q->map, 1);
    PyMem_Free(q->bids.a);
    q->bids.a = NULL;
    q->bids.n = 0;
    q->bids.cap = 0;
    return 0;
}

static void
ccal_dealloc(CCal *q)
{
    PyObject_GC_UnTrack(q);
    ccal_clear_gc(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static int
ccal_init(CCal *q, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"width", NULL};
    double width = 1.0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|d", kwlist, &width))
        return -1;
    q->seq = 0;
    q->removed = 0;
    q->cancelled = 0;
    q->seq_mark = 0;
    q->cur_id = -1;
    q->acts = 0;
    q->width = width;
    q->inv = 1.0 / width;
    q->head = 0;
    if (q->map.slots == NULL) {
        if (bmap_init(&q->map, 64) < 0)
            return -1;
    }
    return 0;
}

static PyMethodDef ccal_methods[] = {
    {"push", (PyCFunction)(void (*)(void))ccal_push, METH_FASTCALL, NULL},
    {"pop_min", (PyCFunction)ccal_pop_min, METH_NOARGS, NULL},
    {"peek_time", (PyCFunction)ccal_peek_time, METH_NOARGS, NULL},
    {"abandon", (PyCFunction)ccal_abandon, METH_NOARGS, NULL},
    {"drain_all", (PyCFunction)ccal_drain_all, METH_O, NULL},
    {"drain_until", (PyCFunction)(void (*)(void))ccal_drain_until,
     METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef ccal_getset[] = {
    {"seq", (getter)ccal_get_seq, NULL, NULL, NULL},
    {"kind", (getter)ccal_get_kind, NULL, NULL, NULL},
    {"width", (getter)ccal_get_width, NULL, NULL, NULL},
    {"active_buckets", (getter)ccal_get_active_buckets, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods ccal_as_sequence = {
    .sq_length = (lenfunc)ccal_sq_len,
};

static PyTypeObject CCalType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckern.CCalendarQueue",
    .tp_basicsize = sizeof(CCal),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled calendar/bucket event queue "
              "(CalendarEventQueue twin).",
    .tp_methods = ccal_methods,
    .tp_getset = ccal_getset,
    .tp_as_sequence = &ccal_as_sequence,
    .tp_traverse = (traverseproc)ccal_traverse,
    .tp_clear = (inquiry)ccal_clear_gc,
    .tp_dealloc = (destructor)ccal_dealloc,
    .tp_init = (initproc)ccal_init,
    .tp_new = PyType_GenericNew,
};

/* ------------------------------------------------------------------ */
/* RidingPush: compiled Simulator._riding_push (the REPRO_FUSION path) */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim;    /* borrowed-by-design?  No: owned (GC-tracked)  */
    PyObject *queue;  /* owned */
} RPush;

static PyTypeObject RPushType;  /* forward */

/* push an entry into whatever queue object the sim carries */
static int
queue_push(PyObject *queue, double when, PyObject *wobj,
           PyObject *ev, PyObject *val)
{
    PyTypeObject *t = Py_TYPE(queue);
    if (t == &CHeapType)
        return cheap_push_c((CHeap *)queue, when, ev, val);
    if (t == &CCalType)
        return ccal_push_c((CCal *)queue, when, ev, val);
    /* generic EventQueue: queue.push(when, event, value) */
    PyObject *w = wobj;
    if (w == NULL) {
        w = PyFloat_FromDouble(when);
        if (w == NULL)
            return -1;
    }
    else
        Py_INCREF(w);
    PyObject *r = PyObject_CallMethodObjArgs(
        queue, K.str_push, w, ev, val ? val : Py_None, NULL);
    Py_DECREF(w);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Transliterates Simulator._riding_push line for line.  wobj_in, if
 * non-NULL, is a borrowed boxed `when` (saves re-boxing on the hot
 * Timeout path).  Reads _floors/_open through the sim slots on every
 * use: repro.sim.link sheds by REBINDING _floors, and the reentrant
 * pushes issued by ln._materialize() can shed _open. */
static int
riding_core(PyObject *sim, double when, PyObject *wobj_in,
            PyObject *ev, PyObject *val, PyObject *queue)
{
    PyObject *wobj = wobj_in;
    int wobj_owned = 0;
    if (val == NULL)
        val = Py_None;

    /* floors: wake link drainers parked at exactly this instant first,
     * so the materialized wake hosts the timestamp */
    PyObject *floors = SLOT(sim, K.sim_floors);
    if (floors != NULL && PyDict_GET_SIZE(floors) > 0) {
        if (wobj == NULL) {
            wobj = PyFloat_FromDouble(when);
            if (wobj == NULL)
                return -1;
            wobj_owned = 1;
        }
        PyObject *parked = PyDict_GetItemWithError(floors, wobj);
        if (parked == NULL) {
            if (PyErr_Occurred())
                goto error;
        }
        else {
            Py_INCREF(parked);
            if (PyDict_DelItem(floors, wobj) < 0) {
                Py_DECREF(parked);
                goto error;
            }
            if (PyList_Check(parked)) {
                for (Py_ssize_t i = 0; i < PyList_GET_SIZE(parked); i++) {
                    PyObject *ln = PyList_GET_ITEM(parked, i);
                    Py_INCREF(ln);
                    PyObject *r = PyObject_CallMethodObjArgs(
                        ln, K.str_materialize, wobj, NULL);
                    Py_DECREF(ln);
                    if (r == NULL) {
                        Py_DECREF(parked);
                        goto error;
                    }
                    Py_DECREF(r);
                }
                Py_DECREF(parked);
            }
            else {
                PyObject *it = PyObject_GetIter(parked);
                if (it == NULL) {
                    Py_DECREF(parked);
                    goto error;
                }
                PyObject *ln;
                while ((ln = PyIter_Next(it)) != NULL) {
                    PyObject *r = PyObject_CallMethodObjArgs(
                        ln, K.str_materialize, wobj, NULL);
                    Py_DECREF(ln);
                    if (r == NULL)
                        break;
                    Py_DECREF(r);
                }
                Py_DECREF(it);
                Py_DECREF(parked);
                if (PyErr_Occurred())
                    goto error;
            }
        }
    }

    /* high-water-mark guard: a fresh maximum cannot collide */
    {
        PyObject *hw = SLOT(sim, K.sim_hwm);
        double hwm = PyFloat_AsDouble(hw ? hw : Py_None);
        if (hwm == -1.0 && PyErr_Occurred())
            goto error;
        if (when > hwm) {
            PyObject *nv = PyFloat_FromDouble(when);
            if (nv == NULL)
                goto error;
            slot_setref(sim, K.sim_hwm, nv);
            if (queue_push(queue, when, wobj, ev, val) < 0)
                goto error;
            if (wobj_owned)
                Py_DECREF(wobj);
            return 0;
        }
    }

    if (wobj == NULL) {
        wobj = PyFloat_FromDouble(when);
        if (wobj == NULL)
            return -1;
        wobj_owned = 1;
    }
    PyObject *open_ = SLOT(sim, K.sim_open);
    PyObject *host = PyDict_SetDefault(open_, wobj, ev);  /* borrowed */
    if (host == NULL)
        goto error;
    if (host != ev) {
        int host_pending;
        if (is_event(host))
            host_pending = (ev_ok(host) == Py_None);
        else {
            PyObject *ok = PyObject_GetAttr(host, K.str_ok_attr);
            if (ok == NULL)
                goto error;
            host_pending = (ok == Py_None);
            Py_DECREF(ok);
        }
        if (host_pending) {
            PyObject *pair = PyTuple_Pack(2, ev, val);
            if (pair == NULL)
                goto error;
            if (is_event(host)) {
                PyObject *riders = SLOT(host, K.ev_riders);
                if (riders == NULL || riders == Py_None) {
                    PyObject *lst = PyList_New(1);
                    if (lst == NULL) {
                        Py_DECREF(pair);
                        goto error;
                    }
                    PyList_SET_ITEM(lst, 0, pair);  /* steals pair */
                    slot_setref(host, K.ev_riders, lst);
                }
                else {
                    int r = PyList_Append(riders, pair);
                    Py_DECREF(pair);
                    if (r < 0)
                        goto error;
                }
            }
            else {
                PyObject *riders = PyObject_GetAttr(host,
                                                    K.str_riders_attr);
                if (riders == NULL) {
                    Py_DECREF(pair);
                    goto error;
                }
                if (riders == Py_None) {
                    Py_DECREF(riders);
                    PyObject *lst = PyList_New(1);
                    if (lst == NULL) {
                        Py_DECREF(pair);
                        goto error;
                    }
                    PyList_SET_ITEM(lst, 0, pair);
                    int r = PyObject_SetAttr(host, K.str_riders_attr, lst);
                    Py_DECREF(lst);
                    if (r < 0)
                        goto error;
                }
                else {
                    int r = PyList_Append(riders, pair);
                    Py_DECREF(pair);
                    Py_DECREF(riders);
                    if (r < 0)
                        goto error;
                }
            }
            if (is_event(ev))
                slot_set(ev, K.ev_riders, K.riding_marker);
            else if (PyObject_SetAttr(ev, K.str_riders_attr,
                                      K.riding_marker) < 0)
                goto error;
            if (riders_pending_add(sim, 1) < 0)
                goto error;
            if (wobj_owned)
                Py_DECREF(wobj);
            return 0;
        }
        /* stale host: replace the slot; the new entry still queues */
        if (PyDict_SetItem(open_, wobj, ev) < 0)
            goto error;
    }
    if (queue_push(queue, when, wobj, ev, val) < 0)
        goto error;

    /* shed dead hosts once the slot table dwarfs the live queue */
    {
        Py_ssize_t osz = PyDict_GET_SIZE(open_);
        if (osz >= OPEN_SHED_MIN) {
            Py_ssize_t qlen;
            PyTypeObject *qt = Py_TYPE(queue);
            if (qt == &CHeapType)
                qlen = ((CHeap *)queue)->h.n;
            else if (qt == &CCalType)
                qlen = (Py_ssize_t)ccal_len((CCal *)queue);
            else {
                qlen = PyObject_Length(queue);
                if (qlen < 0)
                    goto error;
            }
            if (osz > (qlen << 2)) {
                PyObject *nd = PyDict_New();
                if (nd == NULL)
                    goto error;
                PyObject *k2, *v2;
                Py_ssize_t pos = 0;
                while (PyDict_Next(open_, &pos, &k2, &v2)) {
                    int live;
                    if (is_event(v2))
                        live = (ev_ok(v2) == Py_None);
                    else {
                        PyObject *ok = PyObject_GetAttr(v2, K.str_ok_attr);
                        if (ok == NULL) {
                            Py_DECREF(nd);
                            goto error;
                        }
                        live = (ok == Py_None);
                        Py_DECREF(ok);
                    }
                    if (live && PyDict_SetItem(nd, k2, v2) < 0) {
                        Py_DECREF(nd);
                        goto error;
                    }
                }
                slot_setref(sim, K.sim_open, nd);
            }
        }
    }
    if (wobj_owned)
        Py_DECREF(wobj);
    return 0;
error:
    if (wobj_owned)
        Py_DECREF(wobj);
    return -1;
}

static PyObject *
rpush_push(RPush *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "push(when, event, value)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    if (riding_core(self->sim, when, args[0], args[1], args[2],
                    self->queue) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
rpush_init(RPush *self, PyObject *args, PyObject *kwargs)
{
    PyObject *sim, *queue;
    if (!PyArg_ParseTuple(args, "OO", &sim, &queue))
        return -1;
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    Py_INCREF(queue);
    Py_XSETREF(self->queue, queue);
    return 0;
}

static int
rpush_traverse(RPush *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->queue);
    return 0;
}

static int
rpush_clear(RPush *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->queue);
    return 0;
}

static void
rpush_dealloc(RPush *self)
{
    PyObject_GC_UnTrack(self);
    rpush_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef rpush_methods[] = {
    {"push", (PyCFunction)(void (*)(void))rpush_push, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject RPushType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._ckern.RidingPush",
    .tp_basicsize = sizeof(RPush),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled Simulator._riding_push bound to (sim, queue); "
              "sim._push = RidingPush(sim, queue).push.",
    .tp_methods = rpush_methods,
    .tp_traverse = (traverseproc)rpush_traverse,
    .tp_clear = (inquiry)rpush_clear,
    .tp_dealloc = (destructor)rpush_dealloc,
    .tp_init = (initproc)rpush_init,
    .tp_new = PyType_GenericNew,
};

/* Route a push through sim._push without the call overhead when the
 * target is one of ours.  wobj may be NULL (boxed lazily). */
static int
push_via_sim(PyObject *sim, double when, PyObject *wobj,
             PyObject *ev, PyObject *val)
{
    PyObject *push = SLOT(sim, K.sim_push);
    if (push == NULL) {
        PyErr_SetString(PyExc_AttributeError, "_push");
        return -1;
    }
    if (PyCFunction_Check(push)) {
        PyObject *s = PyCFunction_GET_SELF(push);
        if (s != NULL) {
            PyTypeObject *t = Py_TYPE(s);
            if (t == &RPushType)
                return riding_core(((RPush *)s)->sim, when, wobj, ev, val,
                                   ((RPush *)s)->queue);
            if (t == &CHeapType)
                return cheap_push_c((CHeap *)s, when, ev, val);
            if (t == &CCalType)
                return ccal_push_c((CCal *)s, when, ev,
                                   val ? val : Py_None);
        }
    }
    PyObject *w = wobj;
    if (w == NULL) {
        w = PyFloat_FromDouble(when);
        if (w == NULL)
            return -1;
    }
    else
        Py_INCREF(w);
    PyObject *r = PyObject_CallFunctionObjArgs(
        push, w, ev, val ? val : Py_None, NULL);
    Py_DECREF(w);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* ------------------------------------------------------------------ */
/* patched methods                                                     */
/*                                                                     */
/* Each function below replaces one pure-Python method: it is exposed  */
/* through PyInstanceMethod_New, so the receiving instance arrives as  */
/* the first positional argument.                                      */
/* ------------------------------------------------------------------ */

/* Event.succeed core minus the return value.  Mirrors the Python
 * method: re-trigger raises SimulationError with the same message. */
static int
succeed_core(PyObject *ev, PyObject *value)
{
    if (ev_ok(ev) != Py_None) {
        PyObject *msg = PyUnicode_FromFormat(
            "event %R already triggered", SLOT(ev, K.ev_name));
        if (msg != NULL) {
            PyErr_SetObject(K.SimError, msg);
            Py_DECREF(msg);
        }
        return -1;
    }
    slot_set(ev, K.ev_ok, Py_True);
    slot_set(ev, K.ev_value, value);
    return dispatch_slots(ev);
}

static int
fail_core(PyObject *ev, PyObject *exc)
{
    slot_set(ev, K.ev_ok, Py_False);
    slot_set(ev, K.ev_value, exc);
    return dispatch_slots(ev);
}

/* Event.succeed(self, value=None) -> self */
static PyObject *
c_event_succeed(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "succeed() takes at most one argument");
        return NULL;
    }
    PyObject *self = args[0];
    PyObject *value = (nargs == 2) ? args[1] : Py_None;
    if (kwnames != NULL && PyTuple_GET_SIZE(kwnames) > 0) {
        if (PyTuple_GET_SIZE(kwnames) > 1 || nargs == 2) {
            PyErr_SetString(PyExc_TypeError,
                            "succeed() got unexpected keyword arguments");
            return NULL;
        }
        PyObject *name = PyTuple_GET_ITEM(kwnames, 0);
        if (PyUnicode_CompareWithASCIIString(name, "value") != 0) {
            PyErr_Format(PyExc_TypeError,
                         "succeed() got an unexpected keyword argument %R",
                         name);
            return NULL;
        }
        value = args[1];
    }
    if (succeed_core(self, value) < 0)
        return NULL;
    Py_INCREF(self);
    return self;
}

/* Event.add_callback(self, fn) */
static PyObject *
c_event_add_callback(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "add_callback(fn)");
        return NULL;
    }
    PyObject *self = args[0], *fn = args[1];
    if (ev_ok(self) == Py_None) {
        PyObject *cb0 = SLOT(self, K.ev_cb0);
        if (cb0 == NULL || cb0 == Py_None)
            slot_set(self, K.ev_cb0, fn);
        else {
            PyObject *cbs = SLOT(self, K.ev_cbs);
            if (cbs == NULL || cbs == Py_None) {
                PyObject *lst = PyList_New(1);
                if (lst == NULL)
                    return NULL;
                Py_INCREF(fn);
                PyList_SET_ITEM(lst, 0, fn);
                slot_setref(self, K.ev_cbs, lst);
            }
            else if (PyList_Append(cbs, fn) < 0)
                return NULL;
        }
        Py_RETURN_NONE;
    }
    PyObject *r = PyObject_CallOneArg(fn, self);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    Py_RETURN_NONE;
}

/* Event._dispatch(self) */
static PyObject *
c_event_dispatch(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 1) {
        PyErr_SetString(PyExc_TypeError, "_dispatch()");
        return NULL;
    }
    if (dispatch_slots(args[0]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* A completed process drops its generator and the three cached bound
 * methods that make it reachable from itself, so it is freed by
 * reference count (Python twin: the same four stores in _resume). */
static void
process_release(PyObject *self)
{
    slot_set(self, K.pr_gen, Py_None);
    slot_set(self, K.pr_send, Py_None);
    slot_set(self, K.pr_throw, Py_None);
    slot_set(self, K.pr_waitcb, Py_None);
}

/* Process._resume(self, ev).  The Python method tail-recurses into
 * itself when the yielded target has already triggered; here that is
 * the `continue` of the loop. */
static PyObject *
c_process_resume(PyObject *mod, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "_resume(event)");
        return NULL;
    }
    PyObject *self = args[0];
    PyObject *ev = args[1];
    Py_INCREF(ev);
    for (;;) {
        /* stale-wakeup guard */
        if (SLOT(self, K.pr_waiting) != ev || ev_ok(self) != Py_None) {
            Py_DECREF(ev);
            Py_RETURN_NONE;
        }
        slot_set(self, K.pr_waiting, Py_None);

        /* ev._ok truthiness / ev._value: slot path for Events, generic
         * getattr for _StartNow (class attributes) */
        int okflag;
        PyObject *val;
        if (is_event(ev)) {
            okflag = (ev_ok(ev) == Py_True);
            val = SLOT(ev, K.ev_value);
            val = val ? val : Py_None;
            Py_INCREF(val);
        }
        else {
            PyObject *ok = PyObject_GetAttr(ev, K.str_ok_attr);
            if (ok == NULL) {
                Py_DECREF(ev);
                return NULL;
            }
            okflag = PyObject_IsTrue(ok);
            Py_DECREF(ok);
            if (okflag < 0) {
                Py_DECREF(ev);
                return NULL;
            }
            val = PyObject_GetAttr(ev, K.str_value_attr);
            if (val == NULL) {
                Py_DECREF(ev);
                return NULL;
            }
        }
        PyObject *step_fn = SLOT(self, okflag ? K.pr_send : K.pr_throw);
        if (step_fn == NULL) {
            Py_DECREF(val);
            Py_DECREF(ev);
            PyErr_SetString(PyExc_AttributeError, "_send");
            return NULL;
        }
        Py_INCREF(step_fn);
        PyObject *target = PyObject_CallOneArg(step_fn, val);
        Py_DECREF(step_fn);
        Py_DECREF(val);
        Py_DECREF(ev);
        ev = NULL;
        if (target == NULL) {
            if (PyErr_ExceptionMatches(PyExc_StopIteration)) {
                /* generator returned: succeed with StopIteration.value */
                PyObject *etype, *evalue, *etb;
                PyErr_Fetch(&etype, &evalue, &etb);
                PyErr_NormalizeException(&etype, &evalue, &etb);
                PyObject *retval = evalue
                    ? PyObject_GetAttr(evalue, K.str_stopvalue) : NULL;
                Py_XDECREF(etype);
                Py_XDECREF(evalue);
                Py_XDECREF(etb);
                if (retval == NULL) {
                    if (evalue == NULL) {
                        retval = Py_None;
                        Py_INCREF(retval);
                        PyErr_Clear();
                    }
                    else
                        return NULL;
                }
                process_release(self);
                int r = succeed_core(self, retval);
                Py_DECREF(retval);
                if (r < 0)
                    return NULL;
                Py_RETURN_NONE;
            }
            /* uncaught exception: the process fails with it */
            PyObject *etype, *evalue, *etb;
            PyErr_Fetch(&etype, &evalue, &etb);
            PyErr_NormalizeException(&etype, &evalue, &etb);
            if (etb != NULL)
                PyException_SetTraceback(evalue, etb);
            Py_XDECREF(etype);
            Py_XDECREF(etb);
            if (evalue == NULL)
                return NULL;
            process_release(self);
            int r = fail_core(self, evalue);
            Py_DECREF(evalue);
            if (r < 0)
                return NULL;
            Py_RETURN_NONE;
        }
        if (is_event(target)) {
            slot_set(self, K.pr_waiting, target);
            if (ev_ok(target) == Py_None) {
                PyObject *cb = SLOT(self, K.pr_waitcb);
                if (cb == NULL) {
                    Py_DECREF(target);
                    PyErr_SetString(PyExc_AttributeError, "_wait_cb");
                    return NULL;
                }
                PyObject *cb0 = SLOT(target, K.ev_cb0);
                if (cb0 == NULL || cb0 == Py_None)
                    slot_set(target, K.ev_cb0, cb);
                else {
                    PyObject *cbs = SLOT(target, K.ev_cbs);
                    if (cbs == NULL || cbs == Py_None) {
                        PyObject *lst = PyList_New(1);
                        if (lst == NULL) {
                            Py_DECREF(target);
                            return NULL;
                        }
                        Py_INCREF(cb);
                        PyList_SET_ITEM(lst, 0, cb);
                        slot_setref(target, K.ev_cbs, lst);
                    }
                    else if (PyList_Append(cbs, cb) < 0) {
                        Py_DECREF(target);
                        return NULL;
                    }
                }
                Py_DECREF(target);
                Py_RETURN_NONE;
            }
            /* already triggered: continue in place (Python recursion) */
            ev = target;
            continue;
        }
        /* yielded a non-event */
        {
            PyObject *msg = PyUnicode_FromFormat(
                "process %R yielded a non-event: %R",
                SLOT(self, K.ev_name), target);
            Py_DECREF(target);
            if (msg == NULL)
                return NULL;
            PyObject *exc = PyObject_CallOneArg(K.SimError, msg);
            Py_DECREF(msg);
            if (exc == NULL)
                return NULL;
            int r = fail_core(self, exc);
            Py_DECREF(exc);
            if (r < 0)
                return NULL;
            Py_RETURN_NONE;
        }
    }
}

/* Timeout.__init__ core: fill the Event slots, record delay, push. */
static int
timeout_init_core(PyObject *self, PyObject *sim, PyObject *delay,
                  PyObject *value)
{
    double d = PyFloat_AsDouble(delay);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    if (d < 0.0) {
        PyObject *msg = PyUnicode_FromFormat(
            "negative timeout delay: %R", delay);
        if (msg != NULL) {
            PyErr_SetObject(PyExc_ValueError, msg);
            Py_DECREF(msg);
        }
        return -1;
    }
    slot_set(self, K.ev_sim, sim);
    slot_set(self, K.ev_cb0, Py_None);
    slot_set(self, K.ev_cbs, Py_None);
    slot_set(self, K.ev_ok, Py_None);
    slot_set(self, K.ev_value, Py_None);
    slot_set(self, K.ev_name, K.str_timeout);
    slot_set(self, K.ev_riders, Py_None);
    slot_set(self, K.to_delay, delay);
    if (is_sim(sim)) {
        PyObject *nowo = SLOT(sim, K.sim_now);
        double now = PyFloat_AsDouble(nowo ? nowo : Py_None);
        if (now == -1.0 && PyErr_Occurred())
            return -1;
        return push_via_sim(sim, now + d, NULL, self, value);
    }
    /* foreign simulator stand-in (tests): generic attribute path */
    PyObject *nowo = PyObject_GetAttrString(sim, "_now");
    if (nowo == NULL)
        return -1;
    double now = PyFloat_AsDouble(nowo);
    Py_DECREF(nowo);
    if (now == -1.0 && PyErr_Occurred())
        return -1;
    PyObject *push = PyObject_GetAttrString(sim, "_push");
    if (push == NULL)
        return -1;
    PyObject *w = PyFloat_FromDouble(now + d);
    if (w == NULL) {
        Py_DECREF(push);
        return -1;
    }
    PyObject *r = PyObject_CallFunctionObjArgs(push, w, self,
                                               value ? value : Py_None,
                                               NULL);
    Py_DECREF(w);
    Py_DECREF(push);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* Fill out[0..nfields) from positional args[1..nargs) plus kwnames
 * (keyword values sit at args[nargs + j]); the first nrequired fields
 * must be present. */
static int
parse_after_self(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                 const char *const *names, int nfields, int nrequired,
                 PyObject **out)
{
    Py_ssize_t np = nargs - 1;
    if (np > nfields) {
        PyErr_SetString(PyExc_TypeError, "too many arguments");
        return -1;
    }
    for (int i = 0; i < nfields; i++)
        out[i] = NULL;
    for (Py_ssize_t i = 0; i < np; i++)
        out[i] = args[1 + i];
    if (kwnames != NULL) {
        for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(kwnames); j++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, j);
            int hit = -1;
            for (int i = 0; i < nfields; i++) {
                if (PyUnicode_CompareWithASCIIString(name, names[i]) == 0) {
                    hit = i;
                    break;
                }
            }
            if (hit < 0) {
                PyErr_Format(PyExc_TypeError,
                             "unexpected keyword argument %R", name);
                return -1;
            }
            if (out[hit] != NULL) {
                PyErr_Format(PyExc_TypeError,
                             "got multiple values for argument %R", name);
                return -1;
            }
            out[hit] = args[nargs + j];
        }
    }
    for (int i = 0; i < nrequired; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError,
                         "missing required argument: '%s'", names[i]);
            return -1;
        }
    }
    return 0;
}

/* Timeout.__init__(self, sim, delay, value=None) */
static PyObject *
c_timeout_init(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    static const char *names[3] = {"sim", "delay", "value"};
    PyObject *f[3];
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError, "__init__ needs self");
        return NULL;
    }
    if (parse_after_self(args, nargs, kwnames, names, 3, 2, f) < 0)
        return NULL;
    if (timeout_init_core(args[0], f[0], f[1],
                          f[2] ? f[2] : Py_None) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Simulator.timeout(self, delay, value=None) -> Timeout */
static PyObject *
c_sim_timeout(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *names[2] = {"delay", "value"};
    PyObject *f[2];
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError, "timeout() needs self");
        return NULL;
    }
    if (parse_after_self(args, nargs, kwnames, names, 2, 1, f) < 0)
        return NULL;
    PyTypeObject *tt = (PyTypeObject *)K.TimeoutType;
    PyObject *self = tt->tp_alloc(tt, 0);
    if (self == NULL)
        return NULL;
    if (timeout_init_core(self, args[0], f[0],
                          f[1] ? f[1] : Py_None) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return self;
}

/* Simulator.call_at(self, when, fn=None) -> Event */
static PyObject *
c_call_at(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    static const char *names[2] = {"when", "fn"};
    PyObject *f[2];
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError, "call_at() needs self");
        return NULL;
    }
    if (parse_after_self(args, nargs, kwnames, names, 2, 1, f) < 0)
        return NULL;
    PyObject *sim = args[0];
    PyObject *wheno = f[0];
    PyObject *fn = f[1] ? f[1] : Py_None;
    double when = PyFloat_AsDouble(wheno);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    PyTypeObject *et = (PyTypeObject *)K.EventType;
    PyObject *ev = et->tp_alloc(et, 0);
    if (ev == NULL)
        return NULL;
    slot_set(ev, K.ev_sim, sim);
    slot_set(ev, K.ev_cb0, fn);
    slot_set(ev, K.ev_cbs, Py_None);
    slot_set(ev, K.ev_ok, Py_None);
    slot_set(ev, K.ev_value, Py_None);
    slot_set(ev, K.ev_name, K.str_fused);
    slot_set(ev, K.ev_riders, Py_None);
    PyObject *wobj = PyFloat_CheckExact(wheno) ? wheno : NULL;
    if (push_via_sim(sim, when, wobj, ev, NULL) < 0) {
        Py_DECREF(ev);
        return NULL;
    }
    return ev;
}

/* Request.__init__ / Response.__init__: positional+keyword field fill
 * with the shared empty-collection singletons for None defaults. */
static PyObject *
msg_init_common(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                const Py_ssize_t *offs, PyObject *const *names,
                const char *const *cnames, const char *defaults,
                int nfields, const char *fname)
{
    if (nargs < 1) {
        PyErr_Format(PyExc_TypeError, "%s.__init__ needs self", fname);
        return NULL;
    }
    PyObject *self = args[0];
    Py_ssize_t np = nargs - 1;
    if (np > nfields) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %d arguments (%zd given)",
                     fname, nfields, np);
        return NULL;
    }
    PyObject *vals[REQ_NFIELDS];
    for (int i = 0; i < nfields; i++)
        vals[i] = NULL;
    for (Py_ssize_t i = 0; i < np; i++)
        vals[i] = args[1 + i];
    if (kwnames != NULL) {
        for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(kwnames); j++) {
            PyObject *name = PyTuple_GET_ITEM(kwnames, j);
            int hit = -1;
            for (int i = 0; i < nfields; i++) {
                if (name == names[i]
                    || PyUnicode_CompareWithASCIIString(name,
                                                        cnames[i]) == 0) {
                    hit = i;
                    break;
                }
            }
            if (hit < 0) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument %R",
                             fname, name);
                return NULL;
            }
            if (vals[hit] != NULL) {
                PyErr_Format(PyExc_TypeError,
                             "%s() got multiple values for argument %R",
                             fname, name);
                return NULL;
            }
            vals[hit] = args[nargs + j];
        }
    }
    for (int i = 0; i < nfields; i++) {
        PyObject *v = vals[i];
        if (v == NULL) {
            if (defaults[i] == 0) {
                PyErr_Format(PyExc_TypeError,
                             "%s() missing required argument: '%s'",
                             fname, cnames[i]);
                return NULL;
            }
            v = Py_None;
        }
        if (v == Py_None) {
            if (defaults[i] == 1)
                v = K.empty_list;
            else if (defaults[i] == 2)
                v = K.empty_dict;
        }
        slot_set(self, offs[i], v);
    }
    Py_RETURN_NONE;
}

static PyObject *
c_request_init(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    return msg_init_common(args, nargs, kwnames, K.req_off, K.req_names,
                           REQ_FIELDS, REQ_DEFAULT, REQ_NFIELDS, "Request");
}

static PyObject *
c_response_init(PyObject *mod, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    return msg_init_common(args, nargs, kwnames, K.resp_off, K.resp_names,
                           RESP_FIELDS, RESP_DEFAULT, RESP_NFIELDS,
                           "Response");
}

/* ------------------------------------------------------------------ */
/* bind / patches / module                                             */
/* ------------------------------------------------------------------ */

/* __slots__ member-descriptor offset of `name` on class `cls` */
static Py_ssize_t
member_offset(PyObject *cls, const char *name)
{
    PyObject *d = PyObject_GetAttrString(cls, name);
    if (d == NULL)
        return -1;
    if (!Py_IS_TYPE(d, &PyMemberDescr_Type)) {
        PyErr_Format(PyExc_RuntimeError,
                     "%s.%s is not a slot member descriptor "
                     "(layout changed?)",
                     ((PyTypeObject *)cls)->tp_name, name);
        Py_DECREF(d);
        return -1;
    }
    Py_ssize_t off = ((PyMemberDescrObject *)d)->d_member->offset;
    Py_DECREF(d);
    if (off <= 0) {
        PyErr_Format(PyExc_RuntimeError, "bad slot offset for %s", name);
        return -1;
    }
    return off;
}

static int
fetch_class(PyObject *module, const char *name, PyObject **out)
{
    PyObject *cls = PyObject_GetAttrString(module, name);
    if (cls == NULL)
        return -1;
    if (!PyType_Check(cls)) {
        PyErr_Format(PyExc_RuntimeError, "%s is not a class", name);
        Py_DECREF(cls);
        return -1;
    }
    Py_XSETREF(*out, cls);
    return 0;
}

static int
intern_into(PyObject **out, const char *s)
{
    PyObject *u = PyUnicode_InternFromString(s);
    if (u == NULL)
        return -1;
    Py_XSETREF(*out, u);
    return 0;
}

/* bind(core_module, messages_module): capture classes, offsets, and
 * singletons.  Raises RuntimeError on any layout mismatch, in which
 * case the caller (repro.sim.compiled) stays on the pure-Python leg. */
static PyObject *
k_bind(PyObject *mod, PyObject *args)
{
    PyObject *core, *messages;
    if (!PyArg_ParseTuple(args, "OO", &core, &messages))
        return NULL;
    if (K.bound)
        Py_RETURN_NONE;

    if (fetch_class(core, "Event", &K.EventType) < 0
        || fetch_class(core, "Timeout", &K.TimeoutType) < 0
        || fetch_class(core, "Process", &K.ProcessType) < 0
        || fetch_class(core, "Simulator", &K.SimulatorType) < 0
        || fetch_class(core, "SimulationError", &K.SimError) < 0
        || fetch_class(messages, "Request", &K.RequestType) < 0
        || fetch_class(messages, "Response", &K.ResponseType) < 0)
        return NULL;

    PyObject *marker = PyObject_GetAttrString(core, "_RIDING");
    if (marker == NULL)
        return NULL;
    Py_XSETREF(K.riding_marker, marker);
    PyObject *el = PyObject_GetAttrString(messages, "_EMPTY_LIST");
    if (el == NULL)
        return NULL;
    Py_XSETREF(K.empty_list, el);
    PyObject *ed = PyObject_GetAttrString(messages, "_EMPTY_DICT");
    if (ed == NULL)
        return NULL;
    Py_XSETREF(K.empty_dict, ed);

    struct {
        PyObject *cls;
        const char *name;
        Py_ssize_t *out;
    } offs[] = {
        {K.EventType, "sim", &K.ev_sim},
        {K.EventType, "_cb0", &K.ev_cb0},
        {K.EventType, "_callbacks", &K.ev_cbs},
        {K.EventType, "_ok", &K.ev_ok},
        {K.EventType, "_value", &K.ev_value},
        {K.EventType, "_name", &K.ev_name},
        {K.EventType, "_riders", &K.ev_riders},
        {K.TimeoutType, "delay", &K.to_delay},
        {K.ProcessType, "_gen", &K.pr_gen},
        {K.ProcessType, "_waiting_on", &K.pr_waiting},
        {K.ProcessType, "_send", &K.pr_send},
        {K.ProcessType, "_gthrow", &K.pr_throw},
        {K.ProcessType, "_wait_cb", &K.pr_waitcb},
        {K.SimulatorType, "_now", &K.sim_now},
        {K.SimulatorType, "_riders_pending", &K.sim_riders_pending},
        {K.SimulatorType, "_open", &K.sim_open},
        {K.SimulatorType, "_floors", &K.sim_floors},
        {K.SimulatorType, "_hwm", &K.sim_hwm},
        {K.SimulatorType, "_push", &K.sim_push},
        {NULL, NULL, NULL},
    };
    for (int i = 0; offs[i].name != NULL; i++) {
        Py_ssize_t off = member_offset(offs[i].cls, offs[i].name);
        if (off < 0)
            return NULL;
        *offs[i].out = off;
    }
    for (int i = 0; i < REQ_NFIELDS; i++) {
        Py_ssize_t off = member_offset(K.RequestType, REQ_FIELDS[i]);
        if (off < 0)
            return NULL;
        K.req_off[i] = off;
        if (intern_into(&K.req_names[i], REQ_FIELDS[i]) < 0)
            return NULL;
    }
    for (int i = 0; i < RESP_NFIELDS; i++) {
        Py_ssize_t off = member_offset(K.ResponseType, RESP_FIELDS[i]);
        if (off < 0)
            return NULL;
        K.resp_off[i] = off;
        if (intern_into(&K.resp_names[i], RESP_FIELDS[i]) < 0)
            return NULL;
    }
    if (intern_into(&K.str_timeout, "timeout") < 0
        || intern_into(&K.str_fused, "fused") < 0
        || intern_into(&K.str_stopvalue, "value") < 0
        || intern_into(&K.str_push, "push") < 0
        || intern_into(&K.str_materialize, "_materialize") < 0
        || intern_into(&K.str_ok_attr, "_ok") < 0
        || intern_into(&K.str_value_attr, "_value") < 0
        || intern_into(&K.str_riders_attr, "_riders") < 0
        || intern_into(&K.str_dispatch, "_dispatch") < 0)
        return NULL;
    K.bound = 1;
    Py_RETURN_NONE;
}

/* the patchable method set, by "Class.method" key */
static PyMethodDef patch_defs[] = {
    {"Event.succeed", (PyCFunction)(void (*)(void))c_event_succeed,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"Event.add_callback", (PyCFunction)(void (*)(void))c_event_add_callback,
     METH_FASTCALL, NULL},
    {"Event._dispatch", (PyCFunction)(void (*)(void))c_event_dispatch,
     METH_FASTCALL, NULL},
    {"Process._resume", (PyCFunction)(void (*)(void))c_process_resume,
     METH_FASTCALL, NULL},
    {"Timeout.__init__", (PyCFunction)(void (*)(void))c_timeout_init,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"Simulator.timeout", (PyCFunction)(void (*)(void))c_sim_timeout,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"Simulator.call_at", (PyCFunction)(void (*)(void))c_call_at,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"Request.__init__", (PyCFunction)(void (*)(void))c_request_init,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {"Response.__init__", (PyCFunction)(void (*)(void))c_response_init,
     METH_FASTCALL | METH_KEYWORDS, NULL},
    {NULL, NULL, 0, NULL},
};

/* patches() -> {"Class.method": instancemethod-wrapped C function} */
static PyObject *
k_patches(PyObject *mod, PyObject *Py_UNUSED(ignored))
{
    if (!K.bound) {
        PyErr_SetString(PyExc_RuntimeError, "patches() before bind()");
        return NULL;
    }
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
    for (int i = 0; patch_defs[i].ml_name != NULL; i++) {
        PyObject *fn = PyCFunction_NewEx(&patch_defs[i], mod, NULL);
        if (fn == NULL) {
            Py_DECREF(d);
            return NULL;
        }
        PyObject *im = PyInstanceMethod_New(fn);
        Py_DECREF(fn);
        if (im == NULL) {
            Py_DECREF(d);
            return NULL;
        }
        int r = PyDict_SetItemString(d, patch_defs[i].ml_name, im);
        Py_DECREF(im);
        if (r < 0) {
            Py_DECREF(d);
            return NULL;
        }
    }
    return d;
}

static PyMethodDef module_methods[] = {
    {"bind", (PyCFunction)k_bind, METH_VARARGS,
     "bind(core_module, messages_module): capture classes and slot "
     "offsets; must be called before patches() or RidingPush use."},
    {"patches", (PyCFunction)k_patches, METH_NOARGS,
     "patches() -> dict of 'Class.method' -> compiled replacement."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckern_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._ckern",
    .m_doc = "Compiled simulator kernel (hand-written CPython C API); "
             "see repro.sim.compiled for selection and activation.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckern(void)
{
    if (PyType_Ready(&CHeapType) < 0
        || PyType_Ready(&CCalType) < 0
        || PyType_Ready(&RPushType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ckern_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&CHeapType);
    if (PyModule_AddObject(m, "CHeapQueue", (PyObject *)&CHeapType) < 0) {
        Py_DECREF(&CHeapType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CCalType);
    if (PyModule_AddObject(m, "CCalendarQueue",
                           (PyObject *)&CCalType) < 0) {
        Py_DECREF(&CCalType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&RPushType);
    if (PyModule_AddObject(m, "RidingPush", (PyObject *)&RPushType) < 0) {
        Py_DECREF(&RPushType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
