/* Reference gcd of polynomials over F2 for the tests: an implementation of
 * the schoolbook gcd independent of the pure-Python jacrank.f2.poly_gcd,
 * compiled into pytest's temporary directory by `compiled_core` in
 * tests/conftest.py and checked against the production gcd in tests/test_f2.py.
 *
 * Operands and result are little-endian byte strings: bit i of the number
 * they encode is the coefficient of x^i. The words are packed byte by byte,
 * so the result does not depend on the host's byte order.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

/* Degree of the polynomial in w[0..nw-1]; -1 for zero. */
static Py_ssize_t degree(const uint64_t *w, Py_ssize_t nw)
{
    while (nw > 0 && w[nw - 1] == 0)
        nw--;
    if (nw == 0)
        return -1;
    Py_ssize_t d = 64 * (nw - 1);
    for (uint64_t top = w[nw - 1] >> 1; top; top >>= 1)
        d++;
    return d;
}

static PyObject *poly_gcd(PyObject *self, PyObject *args)
{
    const unsigned char *sa, *sb;
    Py_ssize_t la, lb;
    if (!PyArg_ParseTuple(args, "y#y#", &sa, &la, &sb, &lb))
        return NULL;
    /* one spare word: a shifted XOR may carry into the word above A's top */
    Py_ssize_t nw = ((la > lb ? la : lb) + 7) / 8 + 1;
    uint64_t *buf = PyMem_Calloc(2 * nw, sizeof(uint64_t));
    if (buf == NULL)
        return PyErr_NoMemory();
    uint64_t *a = buf, *b = buf + nw, *t;
    for (Py_ssize_t i = 0; i < la; i++)
        a[i / 8] |= (uint64_t)sa[i] << (8 * (i % 8));
    for (Py_ssize_t i = 0; i < lb; i++)
        b[i / 8] |= (uint64_t)sb[i] << (8 * (i % 8));

    Py_ssize_t da = degree(a, nw), db = degree(b, nw), dt;
    while (db >= 0) {
        while (da >= db) {  /* a -= x^(da-db) b; the degree of a drops */
            Py_ssize_t sw = (da - db) / 64, top = db / 64;
            int sh = (int)((da - db) % 64);
            if (sh == 0) {
                for (Py_ssize_t i = 0; i <= top; i++)
                    a[i + sw] ^= b[i];
            } else {
                uint64_t carry = 0;
                for (Py_ssize_t i = 0; i <= top; i++) {
                    a[i + sw] ^= (b[i] << sh) | carry;
                    carry = b[i] >> (64 - sh);
                }
                a[top + sw + 1] ^= carry;
            }
            da = degree(a, da / 64 + 1);
        }
        t = a; a = b; b = t;
        dt = da; da = db; db = dt;
    }

    Py_ssize_t n = (da + 8) / 8;  /* da = -1 gives b"" */
    PyObject *out = PyBytes_FromStringAndSize(NULL, n);
    if (out != NULL) {
        unsigned char *s = (unsigned char *)PyBytes_AS_STRING(out);
        for (Py_ssize_t i = 0; i < n; i++)
            s[i] = (unsigned char)(a[i / 8] >> (8 * (i % 8)));
    }
    PyMem_Free(buf);
    return out;
}

static PyMethodDef methods[] = {
    {"poly_gcd", poly_gcd, METH_VARARGS,
     "poly_gcd(a, b) -> bytes: gcd over F2 of little-endian packed polynomials."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_f2core", NULL, -1, methods
};

PyMODINIT_FUNC PyInit__f2core(void)
{
    return PyModule_Create(&module);
}
