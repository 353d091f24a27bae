//! Datasets of incomplete multi-dimensional objects.

use crate::{DimMask, ModelError, ObjectId, MAX_DIMS};

/// A set of `d`-dimensional objects with possibly missing values.
///
/// Storage is struct-of-arrays: one flat row-major value buffer plus one
/// [`DimMask`] per object. Missing slots hold `NaN` internally but are never
/// exposed — every accessor consults the mask first.
///
/// Objects are addressed by their [`ObjectId`] (row index, insertion order).
#[derive(Clone, Debug)]
pub struct Dataset {
    dims: usize,
    values: Vec<f64>,
    masks: Vec<DimMask>,
    labels: Option<Vec<String>>,
}

#[cfg(feature = "serde")]
impl serde::Serialize for Dataset {
    /// Serializes as `{ dims, rows, labels }` with `rows` holding
    /// `Option<f64>` cells — the same shape [`Dataset::from_rows`] accepts.
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Dataset", 3)?;
        s.serialize_field("dims", &self.dims)?;
        let rows: Vec<Vec<Option<f64>>> = self.ids().map(|o| self.row(o).to_options()).collect();
        s.serialize_field("rows", &rows)?;
        s.serialize_field("labels", &self.labels)?;
        s.end()
    }
}

#[cfg(feature = "serde")]
impl<'de> serde::Deserialize<'de> for Dataset {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        #[derive(serde::Deserialize)]
        struct Raw {
            dims: usize,
            rows: Vec<Vec<Option<f64>>>,
            labels: Option<Vec<String>>,
        }
        let raw = Raw::deserialize(deserializer)?;
        let mut b = Dataset::builder(raw.dims).map_err(serde::de::Error::custom)?;
        match raw.labels {
            Some(labels) if labels.len() == raw.rows.len() => {
                for (label, row) in labels.into_iter().zip(&raw.rows) {
                    b.push_labeled(label, row)
                        .map_err(serde::de::Error::custom)?;
                }
            }
            Some(_) => {
                return Err(serde::de::Error::custom("labels/rows length mismatch"));
            }
            None => {
                for row in &raw.rows {
                    b.push(row).map_err(serde::de::Error::custom)?;
                }
            }
        }
        Ok(b.build())
    }
}

impl PartialEq for Dataset {
    /// Structural equality over *observed* cells only (missing slots hold
    /// NaN internally, so a derived comparison would always fail).
    fn eq(&self, other: &Self) -> bool {
        let (va, vb) = (self.vals(), other.vals());
        self.dims == other.dims
            && self.msks() == other.msks()
            && self.labels == other.labels
            && self.msks().iter().enumerate().all(|(i, m)| {
                m.iter()
                    .all(|d| va[i * self.dims + d] == vb[i * other.dims + d])
            })
    }
}

impl Eq for Dataset {}

impl Dataset {
    /// Start building a dataset with the given dimensionality.
    ///
    /// # Errors
    /// [`ModelError::BadDimensionality`] unless `1 <= dims <= MAX_DIMS`.
    pub fn builder(dims: usize) -> Result<DatasetBuilder, ModelError> {
        if dims == 0 || dims > MAX_DIMS {
            return Err(ModelError::BadDimensionality(dims));
        }
        Ok(DatasetBuilder {
            dims,
            values: Vec::new(),
            masks: Vec::new(),
            labels: Vec::new(),
            any_label: false,
        })
    }

    /// Build a dataset from rows of `Option<f64>` (None = missing).
    ///
    /// # Errors
    /// Propagates the builder's validation errors (arity, NaN, all-missing
    /// rows, bad dimensionality).
    pub fn from_rows(dims: usize, rows: &[Vec<Option<f64>>]) -> Result<Self, ModelError> {
        let mut b = Self::builder(dims)?;
        for row in rows {
            b.push(row)?;
        }
        Ok(b.build())
    }

    /// Rebuild a dataset from its raw storage — the snapshot codec's
    /// entry point, adopting the flat value slab and mask array by move
    /// (no per-row `Vec<Option<f64>>` staging).
    ///
    /// Validation is exactly the builder's invariants, restated over the
    /// raw form: consistent lengths, no mask bit at or beyond `dims`, no
    /// all-missing row, observed slots non-NaN — plus one canonical-form
    /// rule the in-memory representation always satisfies: missing slots
    /// hold the canonical `f64::NAN` bit pattern (which keeps
    /// re-serialization byte-deterministic).
    ///
    /// # Errors
    /// [`ModelError::BadDimensionality`], [`ModelError::RowArity`] (length
    /// mismatches, including a labels array of the wrong length),
    /// [`ModelError::AllMissingRow`], or [`ModelError::NaNValue`] (also
    /// raised for a non-canonical missing slot, reported at its row/dim).
    pub fn from_raw_parts(
        dims: usize,
        values: Vec<f64>,
        masks: Vec<DimMask>,
        labels: Option<Vec<String>>,
    ) -> Result<Self, ModelError> {
        check_parts(dims, &values, &masks, labels.as_deref())?;
        Ok(Dataset {
            dims,
            values,
            masks,
            labels,
        })
    }

    /// Take the dataset apart into what [`Dataset::from_raw_parts`] takes
    /// back: the row-major value slab, the masks and the labels — the
    /// dynamic engine keeps the masks and labels by move and drops the
    /// slab once its index holds the values.
    pub fn into_raw_parts(self) -> (Vec<f64>, Vec<DimMask>, Option<Vec<String>>) {
        (self.values, self.masks, self.labels)
    }

    /// Read-only value slab.
    #[inline]
    fn vals(&self) -> &[f64] {
        &self.values
    }

    /// Read-only mask slab.
    #[inline]
    fn msks(&self) -> &[DimMask] {
        &self.masks
    }

    /// The label array, if this dataset is labeled (one entry per object;
    /// unlabeled rows of a labeled dataset hold the empty string).
    #[inline]
    pub fn labels(&self) -> Option<&[String]> {
        self.labels.as_deref()
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.msks().len()
    }

    /// Is the dataset empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.msks().is_empty()
    }

    /// Dimensionality `d` of the data space.
    #[inline]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Observation mask of object `id` (the paper's `bo`).
    #[inline]
    pub fn mask(&self, id: ObjectId) -> DimMask {
        self.msks()[id as usize]
    }

    /// All masks, indexed by object id.
    #[inline]
    pub fn masks(&self) -> &[DimMask] {
        self.msks()
    }

    /// Value of object `id` at dimension `dim`, or `None` if missing.
    #[inline]
    pub fn value(&self, id: ObjectId, dim: usize) -> Option<f64> {
        if self.msks()[id as usize].observed(dim) {
            Some(self.vals()[id as usize * self.dims + dim])
        } else {
            None
        }
    }

    /// Value of object `id` at dimension `dim` **without checking the mask**.
    ///
    /// Returns the raw storage slot, which is NaN for missing values. Callers
    /// must have established observedness through the mask; this is the hot
    /// path used by the algorithms after a mask intersection test.
    #[inline]
    pub fn raw_value(&self, id: ObjectId, dim: usize) -> f64 {
        self.vals()[id as usize * self.dims + dim]
    }

    /// A borrowed view of one object.
    #[inline]
    pub fn row(&self, id: ObjectId) -> Row<'_> {
        let i = id as usize;
        Row {
            values: &self.vals()[i * self.dims..(i + 1) * self.dims],
            mask: self.msks()[i],
        }
    }

    /// Optional human-readable label of object `id` (e.g. `"C2"` in the
    /// paper's sample dataset).
    pub fn label(&self, id: ObjectId) -> Option<&str> {
        self.labels.as_ref().map(|ls| ls[id as usize].as_str())
    }

    /// Find an object id by label. Linear scan; intended for tests/examples.
    pub fn id_by_label(&self, label: &str) -> Option<ObjectId> {
        let ls = self.labels.as_ref()?;
        ls.iter().position(|l| l == label).map(|i| i as ObjectId)
    }

    /// Iterate over all object ids.
    #[inline]
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + Clone + 'static {
        0..self.len() as ObjectId
    }

    /// Project onto a subset of dimensions (subspace queries, after Tiakas
    /// et al.'s subspace dominating queries).
    ///
    /// Returns the projected dataset plus, for each surviving row, its id
    /// in `self` — objects that observe none of the chosen dimensions
    /// cannot participate in subspace dominance and are dropped (the model
    /// forbids all-missing rows).
    ///
    /// # Errors
    /// [`ModelError::BadDimensionality`] if `dims` is empty;
    /// [`ModelError::DimensionOutOfRange`] if any index is out of range.
    pub fn project(&self, dims: &[usize]) -> Result<(Dataset, Vec<ObjectId>), ModelError> {
        if dims.is_empty() {
            return Err(ModelError::BadDimensionality(0));
        }
        for &d in dims {
            if d >= self.dims {
                return Err(ModelError::DimensionOutOfRange {
                    dim: d,
                    dims: self.dims,
                });
            }
        }
        if dims.len() > MAX_DIMS {
            return Err(ModelError::BadDimensionality(dims.len()));
        }
        // A kept row's cells are the source's, so they need no validation:
        // only the all-missing projections are dropped.
        let mut values = Vec::new();
        let mut masks = Vec::new();
        let mut labels = self.labels.as_ref().map(|_| Vec::new());
        let mut kept = Vec::new();
        for o in self.ids() {
            let (row, mask) = (self.row(o), self.mask(o));
            let projected = DimMask::from_indices(
                (dims.iter().enumerate()).filter_map(|(i, &d)| mask.observed(d).then_some(i)),
            );
            if projected.is_empty() {
                continue;
            }
            values.extend(dims.iter().map(|&d| row.values[d]));
            masks.push(projected);
            if let (Some(out), Some(ls)) = (labels.as_mut(), self.labels.as_ref()) {
                out.push(ls[o as usize].clone());
            }
            kept.push(o);
        }
        let dims = dims.len();
        let projected = Dataset {
            dims,
            values,
            masks,
            labels,
        };
        Ok((projected, kept))
    }

    /// Append an unlabeled row in place, returning its id — the dynamic
    /// counterpart of [`DatasetBuilder::push`], with identical validation.
    ///
    /// # Errors
    /// [`ModelError::RowArity`], [`ModelError::NaNValue`], or
    /// [`ModelError::AllMissingRow`], exactly as the builder rejects them;
    /// the dataset is unchanged on error.
    pub fn push_row(&mut self, row: &[Option<f64>]) -> Result<ObjectId, ModelError> {
        self.push_row_inner(row, None)
    }

    /// Append a labeled row in place. If the dataset was unlabeled so far,
    /// earlier rows get empty labels (the builder's convention).
    ///
    /// # Errors
    /// Same validation as [`Dataset::push_row`].
    pub fn push_row_labeled(
        &mut self,
        label: impl Into<String>,
        row: &[Option<f64>],
    ) -> Result<ObjectId, ModelError> {
        self.push_row_inner(row, Some(label.into()))
    }

    fn push_row_inner(
        &mut self,
        row: &[Option<f64>],
        label: Option<String>,
    ) -> Result<ObjectId, ModelError> {
        let r = self.msks().len();
        let mask = validate_row(self.dims, row, r)?;
        self.values
            .extend(row.iter().map(|v| v.unwrap_or(f64::NAN)));
        self.masks.push(mask);
        match label {
            Some(l) => {
                let labels = self.labels.get_or_insert_with(|| vec![String::new(); r]);
                labels.push(l);
            }
            None => {
                if let Some(labels) = &mut self.labels {
                    labels.push(String::new());
                }
            }
        }
        Ok(r as ObjectId)
    }

    /// Overwrite one cell of object `id` in place (`None` clears it to
    /// missing), updating the observation mask.
    ///
    /// # Errors
    /// [`ModelError::DimensionOutOfRange`] for a bad dimension,
    /// [`ModelError::NaNValue`] for NaN, and [`ModelError::AllMissingRow`]
    /// when clearing the object's only observed value (the model forbids
    /// all-missing rows, §3). The dataset is unchanged on error.
    ///
    /// # Panics
    /// Panics if `id` is out of range (like every accessor).
    pub fn set_value(
        &mut self,
        id: ObjectId,
        dim: usize,
        value: Option<f64>,
    ) -> Result<(), ModelError> {
        let i = id as usize;
        assert!(i < self.msks().len(), "object id {id} out of range");
        if dim >= self.dims {
            return Err(ModelError::DimensionOutOfRange {
                dim,
                dims: self.dims,
            });
        }
        match value {
            Some(v) if v.is_nan() => Err(ModelError::NaNValue { row: i, dim }),
            Some(v) => {
                self.values[i * self.dims + dim] = v;
                self.masks[i].set(dim);
                Ok(())
            }
            None => {
                let mut mask = self.msks()[i];
                mask.unset(dim);
                if mask.is_empty() {
                    return Err(ModelError::AllMissingRow(i));
                }
                self.values[i * self.dims + dim] = f64::NAN;
                self.masks[i] = mask;
                Ok(())
            }
        }
    }

    /// Restrict the dataset to the given object ids (in the given order).
    ///
    /// Labels are carried over. Useful for sampling experiments.
    pub fn select(&self, ids: &[ObjectId]) -> Dataset {
        let mut values = Vec::with_capacity(ids.len() * self.dims);
        let mut masks = Vec::with_capacity(ids.len());
        let mut labels = self.labels.as_ref().map(|_| Vec::with_capacity(ids.len()));
        for &id in ids {
            let i = id as usize;
            values.extend_from_slice(&self.vals()[i * self.dims..(i + 1) * self.dims]);
            masks.push(self.msks()[i]);
            if let (Some(out), Some(ls)) = (labels.as_mut(), self.labels.as_ref()) {
                out.push(ls[i].clone());
            }
        }
        Dataset {
            dims: self.dims,
            values,
            masks,
            labels,
        }
    }
}

/// Validation of [`Dataset::from_raw_parts`]: the builder's invariants restated over
/// the raw slabs — consistent lengths, no mask bit at or beyond `dims`, no
/// all-missing row, observed slots non-NaN — plus one canonical-form rule
/// the in-memory representation always satisfies: missing slots hold the
/// canonical `f64::NAN` bit pattern (which keeps re-serialization
/// byte-deterministic).
fn check_parts(
    dims: usize,
    values: &[f64],
    masks: &[DimMask],
    labels: Option<&[String]>,
) -> Result<(), ModelError> {
    if dims == 0 || dims > MAX_DIMS {
        return Err(ModelError::BadDimensionality(dims));
    }
    let n = masks.len();
    if values.len() != n * dims {
        return Err(ModelError::RowArity {
            row: n,
            got: values.len(),
            expected: n * dims,
        });
    }
    if let Some(ls) = &labels {
        if ls.len() != n {
            return Err(ModelError::RowArity {
                row: n,
                got: ls.len(),
                expected: n,
            });
        }
    }
    let canonical_nan = f64::NAN.to_bits();
    for (r, mask) in masks.iter().enumerate() {
        if mask.is_empty() {
            return Err(ModelError::AllMissingRow(r));
        }
        if dims < MAX_DIMS && mask.bits() >> dims != 0 {
            // A set bit at or beyond `dims` names a dimension that
            // does not exist.
            return Err(ModelError::DimensionOutOfRange {
                dim: 63 - mask.bits().leading_zeros() as usize,
                dims,
            });
        }
        for d in 0..dims {
            let v = values[r * dims + d];
            if mask.observed(d) {
                if v.is_nan() {
                    return Err(ModelError::NaNValue { row: r, dim: d });
                }
            } else if v.to_bits() != canonical_nan {
                return Err(ModelError::NaNValue { row: r, dim: d });
            }
        }
    }
    Ok(())
}

/// Shared row validation of the builder, the in-place mutators, and the
/// dynamic update layer: arity, NaN rejection, and the §3
/// at-least-one-observed-value invariant. `r` is the row index reported
/// in errors. Returns the row's observation mask.
///
/// # Errors
/// [`ModelError::RowArity`], [`ModelError::NaNValue`], or
/// [`ModelError::AllMissingRow`].
pub fn validate_row(dims: usize, row: &[Option<f64>], r: usize) -> Result<DimMask, ModelError> {
    if row.len() != dims {
        return Err(ModelError::RowArity {
            row: r,
            got: row.len(),
            expected: dims,
        });
    }
    let mut mask = DimMask::EMPTY;
    for (d, v) in row.iter().enumerate() {
        if let Some(x) = v {
            if x.is_nan() {
                return Err(ModelError::NaNValue { row: r, dim: d });
            }
            mask.set(d);
        }
    }
    if mask.is_empty() {
        return Err(ModelError::AllMissingRow(r));
    }
    Ok(mask)
}

/// Borrowed view of a single object: its value slots and observation mask.
#[derive(Clone, Copy, Debug)]
pub struct Row<'a> {
    values: &'a [f64],
    mask: DimMask,
}

impl<'a> Row<'a> {
    /// Observation mask of this object.
    #[inline]
    pub fn mask(&self) -> DimMask {
        self.mask
    }

    /// Value at `dim`, or `None` if missing.
    #[inline]
    pub fn value(&self, dim: usize) -> Option<f64> {
        if self.mask.observed(dim) {
            Some(self.values[dim])
        } else {
            None
        }
    }

    /// Iterate over `(dim, value)` pairs of the observed dimensions.
    pub fn observed(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.mask.iter().map(move |d| (d, self.values[d]))
    }

    /// The object as a vector of options (allocates; for display/tests).
    pub fn to_options(&self) -> Vec<Option<f64>> {
        (0..self.values.len()).map(|d| self.value(d)).collect()
    }
}

/// Incremental [`Dataset`] constructor with row validation.
#[derive(Clone, Debug)]
pub struct DatasetBuilder {
    dims: usize,
    values: Vec<f64>,
    masks: Vec<DimMask>,
    labels: Vec<String>,
    any_label: bool,
}

impl DatasetBuilder {
    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Has nothing been pushed yet?
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Reserve capacity for `n` additional rows.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n * self.dims);
        self.masks.reserve(n);
    }

    /// Append an unlabeled row.
    ///
    /// # Errors
    /// Rejects rows of the wrong arity, rows containing NaN, and rows with no
    /// observed value (the paper only considers objects with at least one
    /// observed dimension, §3).
    pub fn push(&mut self, row: &[Option<f64>]) -> Result<ObjectId, ModelError> {
        self.push_inner(row, String::new())
    }

    /// Append a labeled row (labels are used by the paper's worked examples).
    ///
    /// # Errors
    /// Same validation as [`DatasetBuilder::push`].
    pub fn push_labeled(
        &mut self,
        label: impl Into<String>,
        row: &[Option<f64>],
    ) -> Result<ObjectId, ModelError> {
        self.any_label = true;
        self.push_inner(row, label.into())
    }

    fn push_inner(&mut self, row: &[Option<f64>], label: String) -> Result<ObjectId, ModelError> {
        let r = self.masks.len();
        let mask = validate_row(self.dims, row, r)?;
        self.values
            .extend(row.iter().map(|v| v.unwrap_or(f64::NAN)));
        self.masks.push(mask);
        self.labels.push(label);
        Ok(r as ObjectId)
    }

    /// Finish building.
    pub fn build(self) -> Dataset {
        Dataset {
            dims: self.dims,
            values: self.values,
            masks: self.masks,
            labels: if self.any_label {
                Some(self.labels)
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        Dataset::from_rows(
            3,
            &[
                vec![Some(1.0), None, Some(3.0)],
                vec![None, Some(2.0), None],
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let ds = tiny();
        assert_eq!(ds.len(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.dims(), 3);
        assert_eq!(ds.value(0, 0), Some(1.0));
        assert_eq!(ds.value(0, 1), None);
        assert_eq!(ds.value(0, 2), Some(3.0));
        assert_eq!(ds.value(1, 0), None);
        assert_eq!(ds.value(1, 1), Some(2.0));
        assert_eq!(ds.mask(0), DimMask::from_indices([0, 2]));
        assert_eq!(ds.mask(1), DimMask::from_indices([1]));
    }

    #[test]
    fn raw_value_is_nan_on_missing() {
        let ds = tiny();
        assert!(ds.raw_value(0, 1).is_nan());
        assert_eq!(ds.raw_value(1, 1), 2.0);
    }

    #[test]
    fn row_view() {
        let ds = tiny();
        let r = ds.row(0);
        assert_eq!(r.mask(), ds.mask(0));
        assert_eq!(r.value(0), Some(1.0));
        assert_eq!(r.value(1), None);
        assert_eq!(r.observed().collect::<Vec<_>>(), vec![(0, 1.0), (2, 3.0)]);
        assert_eq!(r.to_options(), vec![Some(1.0), None, Some(3.0)]);
    }

    #[test]
    fn rejects_zero_and_excess_dims() {
        assert_eq!(
            Dataset::from_rows(0, &[]).unwrap_err(),
            ModelError::BadDimensionality(0)
        );
        assert_eq!(
            Dataset::from_rows(65, &[]).unwrap_err(),
            ModelError::BadDimensionality(65)
        );
        assert!(Dataset::from_rows(64, &[]).is_ok());
    }

    #[test]
    fn rejects_bad_rows() {
        let mut b = Dataset::builder(2).unwrap();
        assert_eq!(
            b.push(&[Some(1.0)]).unwrap_err(),
            ModelError::RowArity {
                row: 0,
                got: 1,
                expected: 2
            }
        );
        assert_eq!(
            b.push(&[Some(f64::NAN), None]).unwrap_err(),
            ModelError::NaNValue { row: 0, dim: 0 }
        );
        assert_eq!(
            b.push(&[None, None]).unwrap_err(),
            ModelError::AllMissingRow(0)
        );
        // Valid row still accepted after failures.
        assert_eq!(b.push(&[Some(0.5), None]).unwrap(), 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn labels_roundtrip() {
        let mut b = Dataset::builder(1).unwrap();
        b.push_labeled("A1", &[Some(1.0)]).unwrap();
        b.push_labeled("B2", &[Some(2.0)]).unwrap();
        let ds = b.build();
        assert_eq!(ds.label(0), Some("A1"));
        assert_eq!(ds.label(1), Some("B2"));
        assert_eq!(ds.id_by_label("B2"), Some(1));
        assert_eq!(ds.id_by_label("zzz"), None);
    }

    #[test]
    fn unlabeled_dataset_has_no_labels() {
        let ds = tiny();
        assert_eq!(ds.label(0), None);
        assert_eq!(ds.id_by_label("x"), None);
    }

    #[test]
    fn select_subsets_and_reorders() {
        let mut b = Dataset::builder(2).unwrap();
        b.push_labeled("x", &[Some(1.0), None]).unwrap();
        b.push_labeled("y", &[Some(2.0), Some(0.0)]).unwrap();
        b.push_labeled("z", &[None, Some(5.0)]).unwrap();
        let ds = b.build();
        let sub = ds.select(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.label(0), Some("z"));
        assert_eq!(sub.value(0, 1), Some(5.0));
        assert_eq!(sub.label(1), Some("x"));
        assert_eq!(sub.value(1, 0), Some(1.0));
    }

    #[test]
    fn project_keeps_observing_rows_only() {
        let mut b = Dataset::builder(3).unwrap();
        b.push_labeled("p", &[Some(1.0), None, Some(3.0)]).unwrap();
        b.push_labeled("q", &[None, Some(2.0), None]).unwrap();
        b.push_labeled("r", &[Some(4.0), Some(5.0), None]).unwrap();
        let ds = b.build();
        // Subspace {0, 2}: q observes neither and is dropped.
        let (sub, kept) = ds.project(&[0, 2]).unwrap();
        assert_eq!(sub.dims(), 2);
        assert_eq!(kept, vec![0, 2]);
        assert_eq!(sub.label(0), Some("p"));
        assert_eq!(sub.value(0, 1), Some(3.0));
        assert_eq!(sub.label(1), Some("r"));
        assert_eq!(sub.value(1, 0), Some(4.0));
        assert_eq!(sub.value(1, 1), None);
    }

    #[test]
    fn project_can_reorder_and_duplicate_dims() {
        let ds = tiny();
        let (sub, kept) = ds.project(&[2, 0]).unwrap();
        assert_eq!(kept, vec![0]); // object 1 observes only dim 1
        assert_eq!(sub.value(0, 0), Some(3.0));
        assert_eq!(sub.value(0, 1), Some(1.0));
    }

    #[test]
    fn project_rejects_empty_subspace() {
        let ds = tiny();
        assert_eq!(
            ds.project(&[]).unwrap_err(),
            ModelError::BadDimensionality(0)
        );
    }

    #[test]
    fn project_rejects_bad_dimension() {
        assert_eq!(
            tiny().project(&[7]).unwrap_err(),
            ModelError::DimensionOutOfRange { dim: 7, dims: 3 }
        );
    }

    #[test]
    fn ids_iterates_in_order() {
        let ds = tiny();
        assert_eq!(ds.ids().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn push_row_appends_with_builder_validation() {
        let mut ds = tiny();
        assert_eq!(
            ds.push_row(&[Some(1.0)]).unwrap_err(),
            ModelError::RowArity {
                row: 2,
                got: 1,
                expected: 3
            }
        );
        assert_eq!(
            ds.push_row(&[None, None, None]).unwrap_err(),
            ModelError::AllMissingRow(2)
        );
        assert_eq!(
            ds.push_row(&[Some(f64::NAN), None, None]).unwrap_err(),
            ModelError::NaNValue { row: 2, dim: 0 }
        );
        assert_eq!(ds.len(), 2, "failed pushes change nothing");
        let id = ds.push_row(&[None, Some(7.0), None]).unwrap();
        assert_eq!(id, 2);
        assert_eq!(ds.value(2, 1), Some(7.0));
        assert_eq!(ds.mask(2), DimMask::from_indices([1]));
    }

    #[test]
    fn push_row_labeled_backfills_labels() {
        let mut ds = tiny();
        assert_eq!(ds.label(0), None);
        let id = ds
            .push_row_labeled("new", &[Some(1.0), None, None])
            .unwrap();
        assert_eq!(ds.label(id), Some("new"));
        assert_eq!(ds.label(0), Some(""), "earlier rows get empty labels");
        // Unlabeled pushes onto a labeled dataset keep lengths in sync.
        let id2 = ds.push_row(&[Some(2.0), None, None]).unwrap();
        assert_eq!(ds.label(id2), Some(""));
    }

    #[test]
    fn set_value_updates_cell_and_mask() {
        let mut ds = tiny();
        ds.set_value(0, 1, Some(9.0)).unwrap();
        assert_eq!(ds.value(0, 1), Some(9.0));
        ds.set_value(0, 1, None).unwrap();
        assert_eq!(ds.value(0, 1), None);
        assert!(ds.raw_value(0, 1).is_nan());
        // Clearing the only observed value of row 1 is rejected.
        assert_eq!(
            ds.set_value(1, 1, None).unwrap_err(),
            ModelError::AllMissingRow(1)
        );
        assert_eq!(ds.value(1, 1), Some(2.0), "rejected update is a no-op");
        assert_eq!(
            ds.set_value(0, 9, Some(1.0)).unwrap_err(),
            ModelError::DimensionOutOfRange { dim: 9, dims: 3 }
        );
        assert_eq!(
            ds.set_value(0, 0, Some(f64::NAN)).unwrap_err(),
            ModelError::NaNValue { row: 0, dim: 0 }
        );
    }

    #[test]
    fn from_raw_parts_roundtrips() {
        let mut b = Dataset::builder(3).unwrap();
        b.push_labeled("p", &[Some(1.0), None, Some(3.0)]).unwrap();
        b.push_labeled("q", &[None, Some(-0.0), None]).unwrap();
        let ds = b.build();
        let (values, masks, labels) = ds.clone().into_raw_parts();
        assert_eq!(values[4].to_bits(), (-0.0f64).to_bits());
        let rebuilt = Dataset::from_raw_parts(ds.dims(), values, masks, labels).unwrap();
        assert_eq!(rebuilt, ds);
        assert_eq!(rebuilt.label(0), Some("p"));
        // Unlabeled datasets round-trip a None label array.
        let plain = tiny();
        let (values, masks, labels) = plain.clone().into_raw_parts();
        assert_eq!(labels, None);
        let rebuilt = Dataset::from_raw_parts(plain.dims(), values, masks, labels).unwrap();
        assert_eq!(rebuilt, plain);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistencies() {
        let ds = tiny();
        let (vals, masks, _) = ds.into_raw_parts();
        assert_eq!(
            Dataset::from_raw_parts(0, vals.clone(), masks.clone(), None).unwrap_err(),
            ModelError::BadDimensionality(0)
        );
        // Value slab length mismatch.
        assert!(matches!(
            Dataset::from_raw_parts(3, vals[..4].to_vec(), masks.clone(), None),
            Err(ModelError::RowArity { .. })
        ));
        // Labels of the wrong length.
        assert!(matches!(
            Dataset::from_raw_parts(3, vals.clone(), masks.clone(), Some(vec!["x".into()])),
            Err(ModelError::RowArity { .. })
        ));
        // All-missing mask.
        let mut bad = masks.clone();
        bad[1] = DimMask::EMPTY;
        assert_eq!(
            Dataset::from_raw_parts(3, vals.clone(), bad, None).unwrap_err(),
            ModelError::AllMissingRow(1)
        );
        // Mask bit beyond dims.
        let mut bad = masks.clone();
        bad[0] = DimMask::from_bits(0b1000);
        assert_eq!(
            Dataset::from_raw_parts(3, vals.clone(), bad, None).unwrap_err(),
            ModelError::DimensionOutOfRange { dim: 3, dims: 3 }
        );
        // NaN in an observed slot.
        let mut bad_vals = vals.clone();
        bad_vals[0] = f64::NAN;
        assert_eq!(
            Dataset::from_raw_parts(3, bad_vals, masks.clone(), None).unwrap_err(),
            ModelError::NaNValue { row: 0, dim: 0 }
        );
        // Non-canonical NaN payload in a missing slot.
        let mut bad_vals = vals;
        bad_vals[1] = f64::from_bits(f64::NAN.to_bits() ^ 1);
        assert_eq!(
            Dataset::from_raw_parts(3, bad_vals, masks, None).unwrap_err(),
            ModelError::NaNValue { row: 0, dim: 1 }
        );
    }

    #[test]
    fn builder_reserve_and_len() {
        let mut b = Dataset::builder(2).unwrap();
        assert!(b.is_empty());
        b.reserve(10);
        b.push(&[Some(1.0), Some(2.0)]).unwrap();
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}

#[cfg(all(test, feature = "serde"))]
mod serde_tests {
    use super::*;

    /// Static check that the impls exist with the right bounds.
    fn assert_roundtrippable<T: serde::Serialize + serde::de::DeserializeOwned>() {}

    #[test]
    fn dataset_implements_serde() {
        assert_roundtrippable::<Dataset>();
    }
}
