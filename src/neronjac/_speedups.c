/* Compiled enumeration kernel; gives _kernel_py.enumerate_box's answers.
 *
 * Enumerates integer vectors x with lows <= x <= highs (componentwise) and
 * sum(x) == total, subject to constraints
 *
 *     scale * sum(x[v] for v in mask) >= threshold
 *
 * It gives the same answers as the pure kernel by a different search, an
 * iterative depth-first search that checks each value: a constraint is
 * checked on every value of its highest coordinate, and suffix sums of the
 * bounds prune the total.  Output is in lexicographic order.
 *
 * The search works in signed 64-bit arithmetic on at most MAX_N coordinates.
 * Arguments outside int64 raise OverflowError, and more than MAX_N
 * coordinates raise ValueError; _kernel.range_guarded sends every call that
 * could leave that range, including through the sums the search forms, to
 * the pure kernel instead.  Malformed arguments raise the pure kernel's
 * ValueErrors, checked in its order.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define MAX_N 62

/* scale * sum(x[v] for v in mask) >= thr */
typedef struct {
    unsigned long long mask;
    long long thr;
} Constraint;

static int
top_bit(unsigned long long m)
{
    int i = 0;
    while (m >>= 1)
        i++;
    return i;
}

/* Appends x[0..n) to out as a tuple; -1 with an exception set on failure. */
static int
append_point(PyObject *out, const long long *x, int n)
{
    PyObject *t = PyTuple_New(n);
    int i, rc;

    if (t == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *xi = PyLong_FromLongLong(x[i]);
        if (xi == NULL) {
            Py_DECREF(t);
            return -1;
        }
        PyTuple_SET_ITEM(t, i, xi);
    }
    rc = PyList_Append(out, t);
    Py_DECREF(t);
    return rc;
}

/* The search proper: every checked argument as a C value. */
static PyObject *
search(int n, const long long *lows, const long long *highs, long long total,
       long long scale, const Constraint *cons, const int *first_at)
{
    long long suffix_lo[MAX_N + 1], suffix_hi[MAX_N + 1];
    long long x[MAX_N], hi_d[MAX_N], running[MAX_N + 1];
    PyObject *out = PyList_New(0);
    int depth, i, k;

    if (out == NULL)
        return NULL;
    if (n == 0) {
        if (total == 0 && append_point(out, NULL, 0) < 0)
            goto fail;
        return out;
    }

    suffix_lo[n] = suffix_hi[n] = 0;
    for (i = n - 1; i >= 0; i--) {
        suffix_lo[i] = suffix_lo[i + 1] + lows[i];
        suffix_hi[i] = suffix_hi[i + 1] + highs[i];
    }

    depth = 0;
    running[0] = 0;
    for (;;) {
        /* enter `depth`: the values it may take given the total */
        long long rest = total - running[depth];
        long long lo = lows[depth], hi = highs[depth];
        if (rest - suffix_hi[depth + 1] > lo)
            lo = rest - suffix_hi[depth + 1];
        if (rest - suffix_lo[depth + 1] < hi)
            hi = rest - suffix_lo[depth + 1];
        x[depth] = lo - 1;
        hi_d[depth] = hi;

        for (;;) {
            int ok = 1;
            if (++x[depth] > hi_d[depth]) {
                if (--depth < 0)
                    return out;
                continue;
            }
            for (k = first_at[depth]; ok && k < first_at[depth + 1]; k++) {
                unsigned long long m = cons[k].mask;
                long long acc = 0;
                int v;
                for (v = 0; m; v++, m >>= 1)
                    if (m & 1)
                        acc += x[v];
                ok = scale * acc >= cons[k].thr;
            }
            if (!ok)
                continue;
            if (depth < n - 1)
                break;
            /* the last coordinate's bounds force sum(x) == total */
            if (append_point(out, x, n) < 0)
                goto fail;
        }
        running[depth + 1] = running[depth] + x[depth];
        depth++;
    }

fail:
    Py_DECREF(out);
    return NULL;
}

/* Reads an int argument into *out; OverflowError outside int64. */
static int
as_int64(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
enumerate_box(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"lows", "highs", "total", "masks", "thresholds",
                             "scale", NULL};
    PyObject *lows_o, *highs_o, *total_o, *masks_o, *thr_o, *scale_o;
    PyObject *lows_s = NULL, *highs_s = NULL, *masks_s = NULL, *thr_s = NULL;
    PyObject *result = NULL;
    long long lows[MAX_N], highs[MAX_N], total, scale;
    Constraint *cons = NULL, *raw;
    int first_at[MAX_N + 1], count[MAX_N] = {0}, fill[MAX_N];
    Py_ssize_t n, n_cons, i, k;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOO:enumerate_box",
                                     kwlist, &lows_o, &highs_o, &total_o,
                                     &masks_o, &thr_o, &scale_o))
        return NULL;
    if ((lows_s = PySequence_Fast(lows_o, "lows must be a sequence")) == NULL ||
        (highs_s = PySequence_Fast(highs_o, "highs must be a sequence")) == NULL ||
        (masks_s = PySequence_Fast(masks_o, "masks must be a sequence")) == NULL ||
        (thr_s = PySequence_Fast(thr_o, "thresholds must be a sequence")) == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(lows_s);
    n_cons = PySequence_Fast_GET_SIZE(masks_s);
    if (n != PySequence_Fast_GET_SIZE(highs_s)) {
        PyErr_SetString(PyExc_ValueError, "lows and highs must have equal length");
        goto done;
    }
    if (n_cons != PySequence_Fast_GET_SIZE(thr_s)) {
        PyErr_SetString(PyExc_ValueError,
                        "masks and thresholds must have equal length");
        goto done;
    }

    /* an empty box answers [] before any mask is looked at */
    for (i = 0; i < n; i++) {
        int empty = PyObject_RichCompareBool(PySequence_Fast_GET_ITEM(lows_s, i),
                                             PySequence_Fast_GET_ITEM(highs_s, i),
                                             Py_GT);
        if (empty < 0)
            goto done;
        if (empty) {
            result = PyList_New(0);
            goto done;
        }
    }
    if (n > MAX_N) {
        PyErr_SetString(PyExc_ValueError,
                        "too many coordinates for the compiled kernel");
        goto done;
    }

    /* raw: the constraints in input order; cons: grouped by the depth at
       which they become checkable, which is their mask's highest bit */
    cons = PyMem_New(Constraint, 2 * n_cons + 1);
    if (cons == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    raw = cons + n_cons;
    for (k = 0; k < n_cons; k++) {
        PyObject *m_o = PySequence_Fast_GET_ITEM(masks_s, k);
        int overflow;
        long long m = PyLong_AsLongLongAndOverflow(m_o, &overflow);
        if (m == -1 && PyErr_Occurred())
            goto done;
        if (overflow || m <= 0 || m >> n) {
            PyErr_Format(PyExc_ValueError, "mask %S out of range for %zd coordinates",
                         m_o, n);
            goto done;
        }
        raw[k].mask = (unsigned long long)m;
        count[top_bit(raw[k].mask)]++;
    }
    for (k = 0; k < n_cons; k++)
        if (as_int64(PySequence_Fast_GET_ITEM(thr_s, k), &raw[k].thr) < 0)
            goto done;
    first_at[0] = 0;
    for (i = 0; i < n; i++) {
        fill[i] = first_at[i];
        first_at[i + 1] = first_at[i] + count[i];
    }
    for (k = 0; k < n_cons; k++)
        cons[fill[top_bit(raw[k].mask)]++] = raw[k];

    for (i = 0; i < n; i++)
        if (as_int64(PySequence_Fast_GET_ITEM(lows_s, i), &lows[i]) < 0 ||
            as_int64(PySequence_Fast_GET_ITEM(highs_s, i), &highs[i]) < 0)
            goto done;
    if (as_int64(total_o, &total) < 0 || as_int64(scale_o, &scale) < 0)
        goto done;

    result = search((int)n, lows, highs, total, scale, cons, first_at);

done:
    PyMem_Free(cons);
    Py_XDECREF(lows_s);
    Py_XDECREF(highs_s);
    Py_XDECREF(masks_s);
    Py_XDECREF(thr_s);
    return result;
}

static PyMethodDef methods[] = {
    {"enumerate_box", (PyCFunction)(void (*)(void))enumerate_box,
     METH_VARARGS | METH_KEYWORDS,
     "enumerate_box(lows, highs, total, masks, thresholds, scale)\n--\n\n"
     "All admissible vectors as tuples, lexicographically ordered."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "neronjac._speedups",
    "Compiled enumeration kernel; gives _kernel_py.enumerate_box's answers.",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "KERNEL_NAME", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
