package sparse

import "unsafe"

// mulBlock computes dst[c][rows lo..hi) = A·src[c] for every column in one
// sweep over the stored entries, so the matrix streams from memory once for
// all columns. Each column accumulates its row sum in k-ascending order —
// exactly the serial MulVec order, so every column is bit-identical to its
// own serial product. Width 8 (the common sign-off/replica batch) keeps its
// accumulators and column bases in registers through a raw-pointer kernel;
// see CGSolver.mulVecDot for the safety argument (the same CSR invariants
// apply).
func mulBlock(a *CSR, dst, src [][]float64, lo, hi int) {
	if len(dst) == 8 {
		mulBlock8(a, dst, src, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		for c, d := range dst {
			col := src[c]
			var s float64
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Val[k] * col[a.Col[k]]
			}
			d[i] = s
		}
	}
}

// mulBlock8 is the width-8 blocked kernel: one pass over the row's entries
// feeds eight register accumulators.
func mulBlock8(a *CSR, dst, src [][]float64, lo, hi int) {
	rowPtr := a.RowPtr
	colp := unsafe.Pointer(unsafe.SliceData(a.Col))
	valp := unsafe.Pointer(unsafe.SliceData(a.Val))
	x0 := unsafe.Pointer(unsafe.SliceData(src[0]))
	x1 := unsafe.Pointer(unsafe.SliceData(src[1]))
	x2 := unsafe.Pointer(unsafe.SliceData(src[2]))
	x3 := unsafe.Pointer(unsafe.SliceData(src[3]))
	x4 := unsafe.Pointer(unsafe.SliceData(src[4]))
	x5 := unsafe.Pointer(unsafe.SliceData(src[5]))
	x6 := unsafe.Pointer(unsafe.SliceData(src[6]))
	x7 := unsafe.Pointer(unsafe.SliceData(src[7]))
	d0, d1, d2, d3 := dst[0], dst[1], dst[2], dst[3]
	d4, d5, d6, d7 := dst[4], dst[5], dst[6], dst[7]
	for i := lo; i < hi; i++ {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for k, end := int(rowPtr[i]), int(rowPtr[i+1]); k < end; k++ {
			v := *(*float64)(unsafe.Add(valp, uintptr(k)*8))
			off := uintptr(*(*int32)(unsafe.Add(colp, uintptr(k)*4))) * 8
			s0 += v * *(*float64)(unsafe.Add(x0, off))
			s1 += v * *(*float64)(unsafe.Add(x1, off))
			s2 += v * *(*float64)(unsafe.Add(x2, off))
			s3 += v * *(*float64)(unsafe.Add(x3, off))
			s4 += v * *(*float64)(unsafe.Add(x4, off))
			s5 += v * *(*float64)(unsafe.Add(x5, off))
			s6 += v * *(*float64)(unsafe.Add(x6, off))
			s7 += v * *(*float64)(unsafe.Add(x7, off))
		}
		d0[i], d1[i], d2[i], d3[i] = s0, s1, s2, s3
		d4[i], d5[i], d6[i], d7[i] = s4, s5, s6, s7
	}
}
